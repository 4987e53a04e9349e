import itertools
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spreadcodes import cli, doubling, orbits, spreads
from spreadcodes.constructions import cps_build, hkk_build
from spreadcodes.doubling import (
    ALLOWED_PATTERNS,
    ELIMINATED_PATTERN,
    NINTH_PLANE_PATTERNS,
    PATTERN_HOLES,
    DoublingCode,
    exhaustive_xx_census,
    intersection_pattern,
    min_distance,
    optimal_pairs,
    pattern_census,
    validate_doubling,
)
from conftest import act_vector
from spreadcodes.gf2geom import (
    Subspace,
    dual,
    enumerate_subspaces,
    span,
    subspace_distance,
)
from spreadcodes.pg42 import tables
from spreadcodes.spreads import (
    Spread,
    SpreadAnomaly,
    _clique_extend,
    classify,
    dual_spread,
    holes,
)

TAGS = ("X", "E", "IDelta")


@pytest.fixture(scope="module")
def typed_db(reference_pairs, sample_spreads):
    """Twenty sampled spreads of each type, two corpus pairs and a CPS
    (X,E) pair, so that every type pair has both verdicts among its pairs."""
    by_tag = {tag: [] for tag in TAGS}
    for s in sample_spreads(400, 3):
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
            assert validate_doubling(s1, s2).optimal
            assert len(code.codewords) == 18
            assert min_distance(code) == 3

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
            got = [
                (typed_db[i], typed_db[j]) for i, j in optimal_pairs(typed_db, f)
            ]
            assert got == want
        assert list(optimal_pairs(typed_db)) == list(
            optimal_pairs(typed_db, ("X", "X"))
        )

    def test_min_distance_matches_pairwise_sweep(self, reference_pairs):
        """``min_distance`` on point masks against ``subspace_distance`` on
        the codewords: a corpus pair, the first HKK code and the first code
        of each CPS variant, and an invalid pair (a spread with itself)."""
        s1, s2 = reference_pairs[0]
        codes = [DoublingCode(s1, s2), DoublingCode(s1, s1)]
        codes.append(next(hkk_build(limit=1)).code)
        for variant in ("basic", "swap_reguli", "replace_plane"):
            codes.append(next(cps_build(variant, limit=1))[0])
        for code in codes:
            dists = [
                subspace_distance(a, b)
                for a, b in itertools.combinations(code.codewords, 2)
            ]
            assert min(dists) == min_distance(code)
        assert [min_distance(c) for c in codes] == [3, 1, 3, 3, 3, 3]

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
            pat = intersection_pattern(ninth, s1, st1)
            assert (pat.meets_common, pat.hole_count) == want

    def test_hole_count_matches_holes_oracle(self, reference_pairs, sample_spreads):
        """``intersection_pattern`` counts a plane's holes by one AND with the
        spread's cover; ``holes()`` lists them.  Every codeword plane of the
        corpus pairs, and every plane of PG(4,2) against seeded X spreads."""
        cases = [(s1, dual_spread(s2)) for s1, s2 in reference_pairs]
        xs = [s for s in sample_spreads(200, 5) if classify(s).tag == "X"]
        assert len(xs) > 10
        cases += [(s, tables().planes) for s in xs]
        for s1, planes in cases:
            st = classify(s1)
            hs = holes(s1)
            for plane in planes:
                want = sum(1 for h in hs if h in plane)
                assert intersection_pattern(plane, s1, st).hole_count == want

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
            # the counts hold one hit per regulus line, and the common line
            # sits on all four reguli
            assert sum(pat.counts) == reg_pts + 4 * pat.meets_common

    def test_pattern_requires_type_x(self, reference_pairs):
        s1, _ = reference_pairs[0]
        st = classify(s1)
        t = st.reguli[0]
        opp = spreads._opposite_regulus_ids([s1.line_ids[i] for i in t])
        s_e = Spread.from_line_ids(
            [s1.line_ids[i] for i in range(9) if i not in t] + list(opp)
        )
        assert classify(s_e).tag == "E"
        with pytest.raises(ValueError):
            intersection_pattern(dual_spread(s1)[0], s_e)

    @pytest.mark.parametrize(
        "basis, n",
        [([1, 2], 5), ([1, 2, 4], 6), ([1, 2, 4, 8], 5)],
        ids=["line", "plane of PG(5,2)", "solid"],
    )
    def test_pattern_requires_a_plane_of_pg42(self, reference_pairs, basis, n):
        s1, _ = reference_pairs[0]
        for stype in (None, classify(s1)):
            with pytest.raises(ValueError, match=r"need a plane of PG\(4,2\)"):
                intersection_pattern(Subspace(basis, n), s1, stype)

    def test_hole_count_rejects_illegal_combo(self, reference_pairs):
        # scanning every plane of PG(4,2): at least one shows a
        # (meets_common, holes) combination outside the trichotomy that
        # ``PATTERN_HOLES`` states for codeword planes, and ``violations`` flags
        # a census entry of it
        s1, _ = reference_pairs[0]
        st = classify(s1)
        legal = {(False, 1), (True, 0), (True, 2)}
        assert set(PATTERN_HOLES.values()) <= legal
        illegal = []
        for plane in tables().planes:
            pat = intersection_pattern(plane, s1, st)
            if (pat.meets_common, pat.hole_count) not in legal:
                illegal.append(pat)
        assert len(illegal) >= 1
        for pat in illegal:
            key = (pat.counts, pat.meets_common, pat.hole_count, False)
            assert doubling.PatternCensus({key: 1}).violations != []


class TestCensusStreaming:
    def test_reference_pairs_census(self, reference_pairs):
        census = pattern_census(reference_pairs)
        assert census.pair_count == 5
        assert census.plane_count == 45
        assert census.violations == []
        assert census.eliminated_pattern_count == 0
        assert set(census.by_pattern()) <= set(ALLOWED_PATTERNS)
        ninth = {counts for (counts, _m, _h, n) in census.histogram if n}
        assert ninth == {
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

    @pytest.mark.parametrize("f", [("X", "E"), ("E", "X")])
    def test_census_rejects_pair_not_of_type_xx(self, typed_db, f):
        i, j = next(optimal_pairs(typed_db, f))
        with pytest.raises(ValueError, match="does not match"):
            pattern_census([(typed_db[i], typed_db[j])])

    def test_search_on_small_db(self, reference_pairs):
        db = [s for pair in reference_pairs for s in pair]
        found = list(itertools.islice(optimal_pairs(db), 3))
        assert len(found) == 3
        for i, j in found:
            assert validate_doubling(db[i], db[j]).optimal
            assert classify(db[i]).tag == "X"
            assert classify(db[j]).tag == "X"


class TestGL52Generators:
    def test_each_is_a_disjointness_preserving_line_bijection(self):
        lines = tables().lines
        for perm in orbits._line_permutations():
            assert sorted(perm) == list(range(155))
            for i, j in itertools.combinations(range(155), 2):
                a, b = lines[perm[i]], lines[perm[j]]
                assert ((a.mask & b.mask) == 1) == (
                    (lines[i].mask & lines[j].mask) == 1
                )

    def test_each_maps_reference_spreads_to_type_x(self, reference_pairs):
        for perm in orbits._line_permutations():
            for pair in reference_pairs:
                for s in pair:
                    image = Spread.from_line_ids([perm[i] for i in s.line_ids])
                    assert classify(image).tag == "X"


def _random_collineation(rng) -> tuple:
    """The point table of a seeded invertible matrix: rows drawn until the
    table is a bijection of the 32 vectors."""
    while True:
        g = tuple(span(rng.randrange(1, 32) for _ in range(5)))
        if len(set(g)) == 32:
            return g


def _image(s, g, rng) -> Spread:
    """The image of spread ``s`` under the point table ``g``, its lines
    shuffled."""
    ids = [tables().image(l, g) for l in s.lines]
    rng.shuffle(ids)
    return Spread.from_line_ids(ids)


class TestCollineations:
    """Oracles for ``orbits._collineations`` on the four orbit
    representatives: no brute force over the 9,999,360 matrices."""

    @pytest.fixture(scope="class")
    def reps(self):
        """(spread, |Stab|) at rows 0, 1, 4 and 6 of the spreads through
        line 0, read off directly, so that the oracles below do not wait on
        ``spread_orbits``."""
        adj = tables().adjacency
        rows = list(itertools.islice(_clique_extend(adj, [0], adj[0]), 7))
        pinned = ((0, 24), (1, 6), (4, 6), (6, 6))
        return [(Spread.from_line_ids(rows[i]), k) for i, k in pinned]

    def test_spread_orbits_returns_the_representatives(self, reps):
        tags = ("X", "IDelta", "E", "IDelta")
        got = [(s.line_ids, classify(s).tag, k) for s, k in orbits.spread_orbits()]
        assert got == [(s.line_ids, tag, k) for (s, k), tag in zip(reps, tags)]

    def test_each_maps_s_onto_t_through_the_table_image(self, reps):
        t = tables()
        rng = random.Random(5)
        for s, _ in reps:
            for target in (s, _image(s, _random_collineation(rng), rng)):
                found = list(orbits._collineations(s, target))
                assert found
                for g in found:
                    m = (g[1], g[2], g[4], g[8], g[16])
                    assert list(g) == [act_vector(x, m) for x in range(32)]
                    assert {t.image(l, g) for l in s.lines} == set(target.line_ids)

    def test_stabilizer_of_x_row_0_is_closed_under_composition(self, reps):
        s = next(s for s, _ in reps if classify(s).tag == "X")
        stab = set(orbits._collineations(s, s))
        assert len(stab) == 24 and tuple(range(32)) in stab
        assert {tuple(g[x] for x in h) for g in stab for h in stab} == stab

    def test_count_onto_an_image_is_the_stabilizer_order(self, reps):
        rng = random.Random(3)
        for _ in range(3):
            g = _random_collineation(rng)
            for s, k in reps:
                image = _image(s, g, rng)
                onto = sum(1 for _ in orbits._collineations(s, image))
                assert onto == sum(1 for _ in orbits._collineations(s, s)) == k

    def test_the_two_idelta_representatives_are_not_isomorphic(self, reps):
        a, b = [s for s, _ in reps if classify(s).tag == "IDelta"]
        assert next(orbits._collineations(a, b), None) is None
        assert next(orbits._collineations(b, a), None) is None


class TestExhaustiveCensus:
    def test_limited_run_is_clean(self):
        census = exhaustive_xx_census(limit=2)
        assert census.s1_count == 2
        assert census.pair_count > 0
        assert census.violations == []
        assert census.plane_count == 9 * census.pair_count

    def test_partner_census_runs_once_per_process(self, monkeypatch):
        # the representative's census is cached: a second call, with another
        # limit, scales it again without a pattern census of its own
        first = exhaustive_xx_census(limit=1)
        calls = []
        real = orbits.pattern_census
        monkeypatch.setattr(
            orbits, "pattern_census", lambda pairs: calls.append(1) or real(pairs)
        )
        again = exhaustive_xx_census(limit=2)
        assert calls == []
        assert again.pair_count == 2 * first.pair_count
        assert again.histogram == {k: 2 * c for k, c in first.histogram.items()}

    def test_common_line_test_matches_classify_oracle(self):
        # the partner filter of ``_partner_census`` against the full typing
        # it stands in for, on every one of the 64,016 partner rows of the
        # type-X representative: both keep the same 4,560 rows
        ((s1, _),) = [
            (s, k) for s, k in orbits.spread_orbits() if classify(s).tag == "X"
        ]
        every = (1 << 155) - 1
        rows = list(_clique_extend(tables().adjacency, [], every & ~s1.perp_bits))
        assert len(rows) == 64_016
        fast = [orbits._has_common_line(r) for r in rows]
        assert fast == [spreads._classify(r).tag == "X" for r in rows]
        assert sum(fast) == 4_560

    @pytest.mark.slow
    def test_x_rows_of_the_enumeration_are_the_orbit_of_the_representative(
        self, bulk
    ):
        # oracle for the orbit certificate of ``spread_orbits`` and for the
        # partner search by restricted cliques: the type-X rows of the full
        # enumeration are the orbit of the representative by a breadth-first
        # search over sorted line-id keys, and its partners are the rows with
        # no line in ``s1.perp_bits``
        ((s1, stab),) = [
            (s, k) for s, k in orbits.spread_orbits() if classify(s).tag == "X"
        ]
        x_rows = bulk.line_ids[bulk.types == 0]
        assert len(x_rows) == 9_999_360 // stab
        assert Spread.from_line_ids(x_rows[0]) == s1
        perms = orbits._line_permutations()
        seen, frontier = {s1.key}, {s1.key}
        while frontier:
            frontier = {
                tuple(sorted(p[i] for i in k)) for k in frontier for p in perms
            } - seen
            seen |= frontier
        assert set(map(tuple, x_rows.tolist())) == seen
        bits = s1.perp_bits
        forbidden = np.array([bits >> j & 1 for j in range(155)], dtype=bool)
        want = x_rows[~forbidden[x_rows].any(axis=1)]
        one = pattern_census((s1, Spread.from_line_ids(r)) for r in want)
        got = exhaustive_xx_census(limit=1)
        assert (got.pair_count, got.histogram) == (len(want), one.histogram)

    @pytest.mark.parametrize(
        "stray",
        [orbits._GENERATORS[0], (0,) * 32],
        ids=["moves-the-spread", "maps-lines-to-zero"],
    )
    def test_orbits_fail_at_the_first_collineation_off_the_spread(
        self, monkeypatch, capsys, stray
    ):
        # a search that also yields one g that does not fix S (a collineation
        # that moves S, or a table with no line as an image) must raise at
        # the first representative, row 0, with no other search begun: its
        # third call would mean that the walk went on through the rows
        real = orbits._collineations
        adj = tables().adjacency
        row0 = Spread.from_line_ids(next(_clique_extend(adj, [0], adj[0])))
        assert stray not in set(real(row0, row0))
        calls = []

        class WalkedOn(Exception):
            pass

        def with_a_stray(s, t):
            calls.append((s, t))
            if len(calls) == 3:
                raise WalkedOn("the orbit walk went on past its first row")
            yield from real(s, t)
            yield stray

        monkeypatch.setattr(orbits, "_collineations", with_a_stray)
        try:
            orbits.spread_orbits.cache_clear()
            with pytest.raises(SpreadAnomaly, match="does not send"):
                orbits.spread_orbits()
            assert calls == [(row0, row0)]
            calls.clear()
            orbits.spread_orbits.cache_clear()
            assert cli.main(["census", "--exhaustive", "--limit", "1"]) == 3
            assert "invariant violation: a collineation" in capsys.readouterr().err
            assert len(calls) == 1
        finally:
            monkeypatch.undo()
            orbits.spread_orbits.cache_clear()  # drop the faked orbits

    def test_orbits_fail_when_the_generators_are_not_transitive(
        self, monkeypatch, capsys
    ):
        # with the identity as the only generator the pair {0, 29} reaches
        # itself alone: the certificate fails in the library, and the CLI
        # exits 3 with one line naming the pair
        identity = tuple(range(155))
        monkeypatch.setattr(orbits, "_line_permutations", lambda: (identity,))
        msg = "the generators carry the pair (0, 29) onto 1 of the 8680 pairs"
        try:
            orbits.spread_orbits.cache_clear()
            with pytest.raises(SpreadAnomaly, match=re.escape(msg)):
                orbits.spread_orbits()
            orbits.spread_orbits.cache_clear()
            assert cli.main(["census", "--exhaustive", "--limit", "1"]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("invariant violation: " + msg)
        finally:
            monkeypatch.undo()
            orbits.spread_orbits.cache_clear()  # drop the failed certificate

    def test_doubling_never_mentions_numpy(self):
        for module in (doubling, orbits):
            assert "numpy" not in Path(module.__file__).read_text(encoding="utf-8")

    @pytest.mark.slow
    def test_full_census_never_enumerates_every_spread(self):
        # in a fresh interpreter: this one may hold the enumeration already
        script = (
            "from spreadcodes import doubling, spreads\n"
            "doubling.exhaustive_xx_census()\n"
            "print(spreads.all_spread_line_ids.cache_info().currsize)\n"
        )
        src = os.path.dirname(os.path.dirname(doubling.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True, timeout=600,
        )
        assert proc.stdout == "0\n"

    @pytest.mark.slow
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

    @pytest.mark.slow
    def test_certificate_rejects_wrong_types_and_stabilizers(
        self, monkeypatch, capsys
    ):
        # (a) the type-X representative typed E: no orbit is of type X;
        # (b) the E spreads typed X: two orbits are; (c) every stabilizer one
        # element short: the orbit sizes no longer add up to the double count
        real_classify, real_search = doubling.classify, orbits._collineations
        x_rep = next(
            s for s, _ in orbits.spread_orbits() if classify(s).tag == "X"
        )

        def x_rep_as_e(s):
            got = real_classify(s)
            return got._replace(tag="E") if s == x_rep else got

        def e_as_x(s):
            got = real_classify(s)
            return got._replace(tag="X") if got.tag == "E" else got

        def one_short(s, t):
            found = real_search(s, t)
            return itertools.islice(found, 1, None) if s is t else found

        try:
            for modules, name, fake, match in (
                ((doubling, orbits), "classify", x_rep_as_e, "0 orbits of type-X spreads"),
                ((doubling, orbits), "classify", e_as_x, "2 orbits of type-X spreads"),
                ((orbits,), "_collineations", one_short, "stabilizers of orders"),
            ):
                for module in modules:
                    monkeypatch.setattr(module, name, fake)
                orbits.spread_orbits.cache_clear()
                with pytest.raises(SpreadAnomaly, match=match):
                    exhaustive_xx_census(limit=1)
                assert cli.main(["census", "--exhaustive", "--limit", "1"]) == 3
                assert "invariant violation" in capsys.readouterr().err
                monkeypatch.undo()
        finally:
            # drop the faked orbits, and any census typed by a faked classify
            orbits.spread_orbits.cache_clear()
            orbits._partner_census.cache_clear()

import functools
import hashlib
import itertools
from collections import Counter
from types import SimpleNamespace

import pytest

from spreadcodes import cli, constructions
from spreadcodes.constructions import (
    HKK_NINTH_PATTERNS,
    HKK_OTHER_PATTERNS,
    build_lifted_gabidulin,
    cps_build,
    cps_group,
    cps_orbits,
    cps_regulus_check,
    hkk_build,
    hkk_configs,
    hkk_pattern_check,
)
from spreadcodes.doubling import min_distance, validate_doubling
from spreadcodes.gf2geom import (
    Subspace,
    enumerate_subspaces,
    join,
    meet,
    rref,
    span,
    subspace_distance,
)
from spreadcodes.pg42 import tables
from spreadcodes.spreads import (
    Spread,
    SpreadAnomaly,
    _disjoint,
    _opposite_regulus_ids,
    classify,
    dual_spread,
    is_regulus,
)


@pytest.fixture(scope="module")
def gab():
    return build_lifted_gabidulin()


@pytest.fixture(scope="module")
def orbits():
    return cps_orbits()


class TestLiftedGabidulin:
    def test_sixty_four_distinct_planes(self, gab):
        assert len(gab.codewords) == 64
        assert len({c.basis for c in gab.codewords}) == 64
        assert all(c.dim == 3 and c.n == 6 for c in gab.codewords)

    def test_zero_message_gives_identity_lift(self, gab):
        assert gab.codewords[0].basis == (1, 2, 4)

    def test_min_subspace_distance_four(self, gab):
        dists = [
            subspace_distance(a, b)
            for a, b in itertools.combinations(gab.codewords, 2)
        ]
        assert min(dists) == 4

    def test_rank_distance_two_oracle(self, gab):
        """The rank-metric statement that the build checks as subspace
        distance: every difference of two code matrices has rank >= 2."""
        diffs = [
            [a[k] ^ b[k] for k in range(3)]
            for a, b in itertools.combinations(gab.matrices, 2)
        ]
        assert len(diffs) == 2016
        assert min(len(rref(d)) for d in diffs) == 2

    def test_disjoint_from_special_plane(self, gab):
        sm = gab.special_plane.mask
        assert gab.special_plane.basis == (8, 16, 32)
        for c in gab.codewords:
            assert (c.mask & sm) == 1

    def test_canonical_bases_match_the_reducing_constructor(self, gab):
        """The codewords, the special plane, the 99 far planes and the 63
        hyperplanes come from bases taken as canonical, without ``rref``:
        each is what ``Subspace(basis, 6)`` builds, in basis and in mask."""
        for s in gab.codewords + (gab.special_plane,):
            want = Subspace(s.basis, 6)
            assert (s.n, s.basis, s.mask) == (6, want.basis, want.mask)
        for pairs in (constructions._far_planes(), constructions._hyperplanes()):
            for basis, mask in pairs:
                want = Subspace(basis, 6)
                assert (basis, mask) == (want.basis, want.mask)
        assert [b for b, _ in constructions._hyperplanes()] == [
            h.basis for h in enumerate_subspaces(6, 5)
        ]
        # and the configurations carry the same objects as Subspace values
        for cfg in itertools.islice(hkk_configs(mode="all"), 50):
            for s in (cfg.h, cfg.e, cfg.e_prime):
                want = Subspace(s.basis, 6)
                assert (s.basis, s.mask) == (want.basis, want.mask)

    def test_certificate_rejects_codewords_sharing_a_line(self, monkeypatch, capsys):
        """A code whose message (0, 1) lifts to a plane that shares a line
        with the lift of (0, 0), [I3 | 0], as M has rank 1: 447 distinct
        lines.  The build raises SpreadAnomaly, and ``hkk`` exits 3 with one
        line on stderr."""
        real = constructions._gab_matrix

        def rank_one_at_0_1(a0, a1):
            return (1, 0, 0) if (a0, a1) == (0, 1) else real(a0, a1)

        monkeypatch.setattr(constructions, "_gab_matrix", rank_one_at_0_1)
        try:
            build_lifted_gabidulin.cache_clear()
            with pytest.raises(SpreadAnomaly, match="rank distance below 2"):
                build_lifted_gabidulin()
            assert cli.main(["hkk", "--limit", "1"]) == 3
            err = capsys.readouterr().err.splitlines()
            assert err == ["invariant violation: rank distance below 2 in Gabidulin code"]
        finally:
            monkeypatch.undo()
            build_lifted_gabidulin.cache_clear()  # drop the faulty code
        assert len(build_lifted_gabidulin().codewords) == 64


class TestShorten:
    def test_kept_codeword_stays_whole(self, gab):
        h = Subspace((1, 2, 4, 8, 16), 6)
        p = 32
        coord = {v: c for c, v in enumerate(span(h.basis))}
        kept = Subspace((1, 2, 4), 6)
        cut = Subspace((32, 2, 4), 6)
        dropped = Subspace((33, 2, 4), 6)  # off p, not inside h
        # h is the first five coordinates, so its coordinates are the vectors
        assert constructions._shorten_mask(kept.mask, p, h.mask, coord) == kept.mask
        # plane through p becomes a line
        assert constructions._shorten_mask(cut.mask, p, h.mask, coord) == (
            Subspace((2, 4), 5).mask
        )
        assert constructions._shorten_mask(dropped.mask, p, h.mask, coord) is None

    def test_matches_subspace_oracle(self, gab):
        """``_shorten_mask`` and ``hkk_build`` against shortening by
        ``Subspace`` operations, with coordinates read off the pivots of H's
        RREF basis (each pivot occurs in one basis row only)."""
        for res in hkk_build(limit=20):
            cfg = res.config
            pivots = [b & -b for b in cfg.h.basis]

            def image(x):
                coords = [
                    sum(1 << i for i, piv in enumerate(pivots) if v & piv)
                    for v in x.basis
                ]
                return Subspace(coords, 5)

            code = list(gab.codewords) + [cfg.e, cfg.e_prime]
            want = [
                image(x if x <= cfg.h else meet(x, cfg.h))
                for x in code
                if x <= cfg.h or cfg.p in x
            ]
            coord = {v: c for c, v in enumerate(span(cfg.h.basis))}
            masks = (
                constructions._shorten_mask(x.mask, cfg.p, cfg.h.mask, coord)
                for x in code
            )
            assert [m for m in masks if m is not None] == [x.mask for x in want]
            lines = [x for x in want[:-2] if x.dim == 2] + [want[-2]]
            planes = [x for x in want[:-2] if x.dim == 3] + [want[-1]]
            assert list(res.code.s1.lines) == lines
            assert list(dual_spread(res.code.s2)) == planes
            assert res.l2_image == image(meet(gab.special_plane, cfg.h))


class TestHKK:
    def test_first_configs_deterministic(self):
        cfgs = list(itertools.islice(hkk_configs(mode="first"), 2))
        assert cfgs[0].p == 1
        assert cfgs[0].h.basis == (9, 2, 4, 16, 32)
        assert cfgs[0].e.basis == (1, 8, 16)
        assert cfgs[0].e_prime.basis == (2, 16, 32)
        assert cfgs[1].h.basis == (9, 2, 12, 16, 32)
        assert list(itertools.islice(hkk_configs(mode="first"), 2)) == cfgs

    def test_config_invariants(self, gab):
        for cfg in itertools.islice(hkk_configs(mode="all"), 20):
            assert cfg.p not in gab.special_plane
            assert cfg.p not in cfg.h
            assert cfg.p in cfg.e
            assert cfg.e_prime.mask & ~cfg.h.mask == 0
            assert subspace_distance(cfg.e, cfg.e_prime) >= 4
            for c in gab.codewords:
                assert subspace_distance(cfg.e, c) >= 4
                assert subspace_distance(cfg.e_prime, c) >= 4

    def test_far_planes_match_distance_oracle(self, gab):
        """The far-plane list against ``subspace_distance`` over all 1,395
        planes of PG(5,2), in ``enumerate_subspaces`` order."""
        want = [
            e
            for e in enumerate_subspaces(6, 3)
            if all(subspace_distance(e, c) >= 4 for c in gab.codewords)
        ]
        assert len(want) == 99
        assert list(constructions._far_planes()) == [(e.basis, e.mask) for e in want]

    def test_far_plane_lemma_premises(self, gab):
        """The lemma behind ``_far_planes``: the codewords' lines are the 448
        lines of PG(5,2) that miss the special plane S, each in exactly one
        codeword, and the far planes are S plus 14 planes through each of
        the 7 lines of S."""
        s = gab.special_plane
        missing = [l for l in enumerate_subspaces(6, 2) if l.mask & s.mask == 1]
        assert len(missing) == 448
        for l in missing:
            assert sum(l <= c for c in gab.codewords) == 1
        by_meet = Counter(meet(Subspace(e, 6), s) for e, _ in constructions._far_planes())
        assert by_meet.pop(s) == 1
        assert len(by_meet) == 7
        assert all(m.dim == 2 and n == 14 for m, n in by_meet.items())

    def test_first_fit_configs_pinned(self):
        rows = [
            (c.p, c.h.basis, c.e.basis, c.e_prime.basis)
            for c in hkk_configs(mode="first")
        ]
        assert len(rows) == 1568
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "a0a482656a9a5e79c671baa209acc3deac950bb9b5d248a7c250e98274a2bef4"
        )

    @staticmethod
    def _code_rows(results) -> list:
        return [
            (r.code.s1.line_ids, r.code.s2.line_ids, r.l2_image.basis)
            for r in results
        ]

    def test_first_fit_codes_pinned(self):
        rows = self._code_rows(hkk_build(mode="first"))
        assert len(rows) == 1568
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "5afa5b55a7a39a7d388323560f47bfab37e043f746dd49a95a8b88d6058e64c8"
        )

    @pytest.mark.slow
    def test_all_mode_configs_and_codes(self):
        rows = [
            (c.p, c.h.basis, c.e.basis, c.e_prime.basis)
            for c in hkk_configs(mode="all")
        ]
        assert len(rows) == 56448
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "2087c727d8a26ce327fcf62a97b5a9cce98bae90f45fa3d30956b35b6e8dddf6"
        )
        # every valid configuration assembles an optimal code: the one
        # discard path of hkk_build is never taken
        stats = {}
        rows = self._code_rows(hkk_build(mode="all", stats=stats))
        assert stats == {}
        assert len(rows) == 56448
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "0536fc0f9010cf627dd234f97aeb2681dbb29318eeb7190a7c3e72cb1a60c521"
        )

    def test_mode_error(self):
        with pytest.raises(ValueError):
            next(hkk_configs(mode="bogus"))

    def test_build_first_result(self):
        res = next(hkk_build(mode="first", limit=1))
        assert validate_doubling(res.code.s1, res.code.s2).optimal
        assert min_distance(res.code) == 3
        assert res.l2_image.basis == (8, 16)
        rep = hkk_pattern_check(res)
        assert rep.ok
        assert rep.ninth_pattern == (3, 3, 1, 1)
        assert rep.ninth_pattern in HKK_NINTH_PATTERNS
        assert Counter(rep.other_patterns) == Counter(
            {(3, 3, 2, 2): 4, (2, 2, 2, 0): 2, (2, 2, 1, 1): 2}
        )
        assert rep.s1_tag == rep.s2_tag == "X"
        assert rep.common_is_ninth_line
        assert rep.regulus_free
        assert rep.planes_disjoint_from_l2

    def test_build_batch_all_valid(self):
        """Every first-fit code passes ``hkk_pattern_check``; their holes
        cover all 31 points, so the α9 lookup meets every point."""
        stats = {}
        results = list(hkk_build(mode="first", stats=stats))
        assert len(results) == 1568
        for res in results:
            rep = hkk_pattern_check(res)
            assert rep.ok
            assert all(p in HKK_OTHER_PATTERNS for p in rep.other_patterns)

    def test_discard_path_counts_a_config_that_is_not_two_spreads(self, monkeypatch):
        real = Spread.from_line_ids
        calls = []

        def first_spread_broken(ids):
            # the first spread check raises SpreadError: line 9 meets line 1
            calls.append(ids)
            return real(ids[:8] + ids[:1] if len(calls) == 1 else ids)

        monkeypatch.setattr(
            constructions, "Spread", SimpleNamespace(from_line_ids=first_spread_broken)
        )
        stats = {}
        res = next(hkk_build(mode="first", stats=stats))
        assert stats == {"discarded": 1}
        assert res.config == list(itertools.islice(hkk_configs(mode="first"), 2))[1]


class TestCPSGroup:
    def test_order_six_with_axioms(self):
        group = cps_group()
        assert len(group) == 6
        # cyclic of order 6: one involution, two order-3 and two order-6
        # elements besides the identity; elements are point tables, and g
        # then g again sends v to g[g[v]]
        ident = tuple(range(32))
        orders = []
        for g in group:
            x, k = g, 1
            while x != ident:
                x = tuple(g[v] for v in x)
                k += 1
            orders.append(k)
        assert sorted(orders) == [1, 2, 3, 3, 6, 6]

    def test_orbit_structure(self, orbits):
        sizes = Counter(len(o) for o in orbits.line_orbits)
        assert sizes == Counter({6: 22, 3: 6, 2: 2, 1: 1})
        sizes = Counter(len(o) for o in orbits.plane_orbits)
        assert sizes == Counter({6: 22, 3: 6, 2: 2, 1: 1})
        # the orbits partition the 155 ids of each side
        for orbs in (orbits.line_orbits, orbits.plane_orbits):
            assert sorted(i for o in orbs for i in o) == list(range(155))
        assert len(orbits.good_line_orbits) == 4
        assert len(orbits.good_plane_orbits) == 4

    def test_good_orbits_are_good(self, orbits):
        t = tables()
        for i in orbits.good_line_orbits:
            o = [t.lines[j] for j in orbits.line_orbits[i]]
            assert len(o) == 6
            for a, b in itertools.combinations(o, 2):
                assert (a.mask & b.mask) == 1
        for i in orbits.good_plane_orbits:
            o = [t.planes[j] for j in orbits.plane_orbits[i]]
            for a, b in itertools.combinations(o, 2):
                assert (a.mask & b.mask).bit_count() == 2


class TestCPSBuild:
    def test_variant_error(self):
        with pytest.raises(ValueError):
            next(cps_build("bogus"))

    def test_basic_variant(self):
        out = list(cps_build("basic"))
        assert len(out) == 8
        tally = Counter(
            (classify(code.s1).tag, classify(code.s2).tag, cps_regulus_check(code))
            for code, _ in out
        )
        assert tally == Counter({("X", "E", True): 4, ("E", "X", True): 4})
        for code, cfg in out:
            assert validate_doubling(code.s1, code.s2).optimal
            assert min_distance(code) == 3
            assert cfg.point_n == 1
            assert cfg.variant == "basic"
            assert cfg.replaced_index is None

    def test_swap_reguli_variant(self):
        out = list(cps_build("swap_reguli"))
        assert len(out) == 8
        tally = Counter(
            (classify(code.s1).tag, classify(code.s2).tag, cps_regulus_check(code))
            for code, _ in out
        )
        assert tally == Counter({("X", "E", True): 4, ("E", "X", True): 4})
        # over GF(2) each good line orbit has exactly two completing reguli,
        # each the other's opposite, so this variant emits the codes of
        # ``basic``, each orbit's pair in the other order
        basic, swapped = (
            [(c.s1.line_ids, c.s2.line_ids, cfg.point_n, cfg.replaced_index)
             for c, cfg in codes]
            for codes in (cps_build("basic"), out)
        )
        assert sorted(swapped) == sorted(basic)
        assert [basic.index(r) for r in swapped] == [1, 0, 3, 2, 5, 4, 7, 6]

    def test_replace_plane_variant(self):
        out = list(cps_build("replace_plane"))
        assert len(out) == 36
        for code, cfg in out:
            assert validate_doubling(code.s1, code.s2).optimal
            assert classify(code.s1).tag == "E"
            assert classify(code.s2).tag == "X"
            assert not cps_regulus_check(code)
            assert cfg.replaced_index in (0, 1, 2)
        ns = sorted({cfg.point_n for _, cfg in out})
        assert ns == [1, 3, 5, 7, 11, 13, 15, 19, 21, 23, 27, 29, 31]

    def test_limit_respected(self):
        assert len(list(cps_build("basic", limit=3))) == 3

    def test_completing_reguli_searched_once_per_orbit(self, monkeypatch):
        """Two full runs of every variant test the C(12, 3) = 220 candidate
        triples of each of the 4 good line orbits once: 880 ``is_regulus``
        calls in all, and each orbit keeps its 2 completing reguli."""
        calls = []
        real = constructions.is_regulus
        monkeypatch.setattr(
            constructions, "is_regulus", lambda ids: calls.append(ids) or real(ids)
        )
        constructions._completing_reguli.cache_clear()
        try:
            for _ in range(2):
                for variant in ("basic", "swap_reguli", "replace_plane"):
                    assert len(list(cps_build(variant))) > 0
            assert len(calls) == 4 * 220
            info = constructions._completing_reguli.cache_info()
            assert (info.misses, info.currsize) == (4, 4)
        finally:
            constructions._completing_reguli.cache_clear()
        orbits = cps_orbits()
        for li in orbits.good_line_orbits:
            assert len(constructions._completing_reguli(orbits.line_orbits[li])) == 2

    @pytest.fixture(scope="class")
    def visited(self):
        """Run every variant in full, recording the plane sets that
        ``cps_build`` checks with ``_disjoint`` and the 9 plane ids (a good
        plane orbit then a plane set) it builds a dual spread from."""
        t = tables()
        orbits = cps_orbits()
        p1s = {orbits.plane_orbits[i] for i in orbits.good_plane_orbits}
        calls, built = [], set()

        def disjoint(ids):
            calls.append(tuple(ids))
            return _disjoint(ids)

        def from_line_ids(ids):
            if tuple(ids[:6]) in p1s:
                built.add((tuple(ids[:6]), tuple(ids[6:])))
            return Spread.from_line_ids(ids)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_disjoint", disjoint)
            spread = SimpleNamespace(from_line_ids=from_line_ids)
            mp.setattr(constructions, "Spread", spread)
            for variant in ("basic", "swap_reguli", "replace_plane"):
                assert len(list(cps_build(variant))) > 0
        return SimpleNamespace(p1s=sorted(p1s), calls=calls, built=built)

    def test_disjoint_once_per_plane_set(self, visited):
        """``_disjoint`` sees each plane set on its own, not once per good
        plane orbit: 176 + 176 + 1,728 calls over the three variants."""
        assert all(len(ids) == 3 for ids in visited.calls)
        assert len(visited.calls) == 176 + 176 + 1728

    def test_disjoint_precheck_matches_plane_mask_oracle(self, visited):
        """The pre-check accepts exactly the (good plane orbit, plane set)
        pairs whose 9 planes have a dual spread: whose point masks pairwise
        meet in exactly a point, the zero vector and one more."""
        planes_of = tables().planes
        seen = Counter()
        for p1 in visited.p1s:
            for pset in set(visited.calls):
                ok = all(
                    (a.mask & b.mask).bit_count() == 2
                    for a, b in itertools.combinations(
                        [planes_of[i] for i in p1 + pset], 2
                    )
                )
                assert ((p1, pset) in visited.built) == ok, (p1, pset)
                seen[ok] += 1
        assert seen == Counter({False: 2244, True: 20})

    def test_orbit_and_matches_disjoint_oracle(self, visited):
        """The orbit-AND pre-check (a plane set disjoint on its own and inside
        the AND of the orbit's ``adjacency`` rows) against its oracle, the
        check ``cps_build`` made before: ``_disjoint`` on all 9 plane ids.
        They agree because a good plane orbit is pairwise disjoint."""
        adj = tables().adjacency
        for p1 in visited.p1s:
            assert _disjoint(p1)
            orbit_and = functools.reduce(int.__and__, (adj[j] for j in p1))
            for pset in set(visited.calls):
                bits = sum(1 << i for i in pset)
                fast = _disjoint(pset) and not bits & ~orbit_and
                assert fast == _disjoint(p1 + pset), (p1, pset)

    @staticmethod
    def _scan_through(t, i) -> list:
        """The planes through line ``i`` in canonical-basis order, by
        containment of point sets."""
        order = sorted(range(len(t.planes)), key=lambda j: t.planes[j].basis)
        return [j for j in order if t.lines[i] <= t.planes[j]]

    def test_plane_lookup_matches_scan_oracle(self):
        """<l, N> by ``_planes_through``'s map against the scan it replaced,
        the first plane through l that holds N, for every line l and every
        one of the 28 points N off l."""
        t = tables()
        for i, line in enumerate(t.lines):
            through, plane_of = constructions._planes_through(i)
            assert list(through) == self._scan_through(t, i)
            off = [n for n in range(1, 32) if n not in line]
            assert sorted(plane_of) == off and len(off) == 28
            for n in off:
                assert plane_of[n] == next(j for j in through if n in t.planes[j])

    def test_plane_sets_match_scan_oracle(self, visited):
        """Every plane set ``cps_build`` weighs, in order, the replace_plane
        alternatives included, against the loop it ran before ``<l, N>``
        was a lookup: N over the points off the plane-part lines, <l, N> by
        scan, and an alternative any other plane through l outside the
        carrier solid."""
        t = tables()
        orbits = cps_orbits()
        expected = []
        for variant in ("basic", "swap_reguli", "replace_plane"):
            for li in orbits.good_line_orbits:
                for r2 in constructions._completing_reguli(orbits.line_orbits[li]):
                    r1 = _opposite_regulus_ids(r2)
                    part = r2 if variant == "swap_reguli" else r1
                    solid = join(t.lines[r1[0]], t.lines[r1[1]])  # the carrier
                    through = [self._scan_through(t, i) for i in part]
                    covered = functools.reduce(
                        int.__or__, (t.lines[i].mask for i in part)
                    )
                    for n in range(1, 32):
                        if covered >> n & 1:
                            continue
                        base = tuple(
                            next(j for j in th if n in t.planes[j]) for th in through
                        )
                        if variant != "replace_plane":
                            expected.append(base)
                            continue
                        expected += [
                            base[:k] + (alt,) + base[k + 1:]
                            for k in range(3)
                            for alt in through[k]
                            if alt != base[k] and not t.planes[alt] <= solid
                        ]
        assert visited.calls == expected


class TestOutputPins:
    """The emitted codes and their order, as SHA-256 of their line ids."""

    @staticmethod
    def _sha(rows) -> str:
        return hashlib.sha256(repr(rows).encode()).hexdigest()

    @pytest.mark.parametrize(
        "variant, n, sha",
        [
            ("basic", 8,
             "d5c289ded89794ee36afe4e678acaade5411d70a30759929e0679d8c07969d2b"),
            ("swap_reguli", 8,
             "1d8a14f0a479b53687b520fecfd47f4a68521b77d58096b66b99f18a22cc31f2"),
            ("replace_plane", 36,
             "71328a7302fbdcaa1af8e0f55b606abfdb835ba08e2e310a530b9d23c98c8883"),
        ],
    )
    def test_cps_build(self, variant, n, sha):
        rows = [
            (c.s1.line_ids, c.s2.line_ids, cfg.point_n, cfg.replaced_index)
            for c, cfg in cps_build(variant)
        ]
        assert len(rows) == n
        assert self._sha(rows) == sha

    def test_hkk_build(self):
        rows = [
            (r.code.s1.line_ids, r.code.s2.line_ids, r.config.p)
            for r in hkk_build(limit=32)
        ]
        assert len(rows) == 32
        assert self._sha(rows) == (
            "62f78fde6126c3fd19d86ad65d2c07a515c90f4879a52cda48d1938d42d4d19b"
        )


class TestCPSCompletionCertificate:
    """No good CPS orbit completes to an IDelta spread by a regulus.

    Certificate for the spread types of criterion 7, by enumeration.
    """

    def test_completions_of_every_good_orbit(self, cps_completions):
        for side in ("line", "plane"):
            assert len(cps_completions[side]) == 4
            for comp in cps_completions[side]:
                assert len(comp) == 14
                # keys: (3 added lines form a regulus, spread type)
                assert Counter(comp.values()) == Counter(
                    {
                        (True, "X"): 1,
                        (True, "E"): 1,
                        (False, "X"): 6,
                        (False, "IDelta"): 6,
                    }
                )

    def test_idelta_minus_regulus_has_uneven_regulus_counts(
        self, cps_good_orbits, sample_spreads
    ):
        # A group transitive on a good orbit gives each of its lines the
        # same number of reguli inside the orbit ...
        for o in cps_good_orbits["line"] + cps_good_orbits["plane"]:
            inner = [
                sum(x in t and is_regulus(t) for t in itertools.combinations(o, 3))
                for x in o
            ]
            assert len(set(inner)) == 1
        # ... while an IDelta spread minus any of its reguli never does.
        idelta = [st for st in map(classify, sample_spreads(400, 1)) if st.tag == "IDelta"]
        assert len(idelta) >= 200
        for st in idelta:
            for r in st.reguli:
                inside = [t for t in st.reguli if not set(t) & set(r)]
                counts = [
                    sum(i in t for t in inside) for i in range(9) if i not in r
                ]
                assert len(set(counts)) > 1, (st, r, counts)

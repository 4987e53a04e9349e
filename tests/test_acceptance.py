"""Top-level acceptance checks, one per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure) and then asserts.  Large
exhaustive regression values were frozen from the first complete run of
this code base and guard against regressions, not against literature.
"""

import itertools
import random

import numpy as np
import pytest

from spreadcodes import cli, corpus
from spreadcodes.constructions import (
    HKK_NINTH_PATTERNS,
    HKK_OTHER_PATTERNS,
    build_lifted_gabidulin,
    cps_build,
    cps_group,
    cps_orbits,
    cps_regulus_check,
    hkk_build,
    hkk_pattern_check,
)
from spreadcodes.doubling import (
    ALLOWED_PATTERNS,
    ELIMINATED_PATTERN,
    OPEN_PATTERN,
    PATTERN_HOLES,
    DoublingCode,
    exhaustive_xx_census,
    intersection_pattern,
    min_distance,
    spread_orbits,
    validate_doubling,
)
from spreadcodes.gf2geom import (
    dual,
    enumerate_subspaces,
    gaussian_binomial,
    join,
    meet,
    rref,
    subspace_distance,
)
from spreadcodes.pg42 import N_LINES, tables
from spreadcodes.spreads import _clique_extend, classify, classify_all


def _verdict(cap, n: int, ok: bool, detail: str):
    # suspend capture so the one-line verdict always shows in the log
    with cap.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


# frozen regression values from the first complete exhaustive run
FROZEN_SPREAD_COUNT = 5416320
FROZEN_TYPE_COUNTS = {"X": 416640, "E": 1666560, "IDelta": 3333120}
FROZEN_PAIR_COUNT = 1899878400
FROZEN_HISTOGRAM = {
    ((2, 2, 1, 1), False, 1, False): 3659765760,
    ((2, 2, 1, 1), False, 1, True): 479969280,
    ((2, 2, 2, 0), False, 1, False): 1219921920,
    ((2, 2, 2, 0), False, 1, True): 179988480,
    ((2, 2, 2, 2), True, 2, False): 3149798400,
    ((2, 2, 2, 2), True, 2, True): 359976960,
    ((3, 3, 1, 1), True, 2, False): 1489904640,
    ((3, 3, 1, 1), True, 2, True): 179988480,
    ((3, 3, 2, 2), True, 0, False): 5679636480,
    ((3, 3, 2, 2), True, 0, True): 699955200,
}


def test_criterion_1_enumeration_counts(capfd):
    got = {
        k: len(enumerate_subspaces(5, d))
        for k, d in (("points", 1), ("lines", 2), ("planes", 3), ("solids", 4))
    }
    ok = got == {"points": 31, "lines": 155, "planes": 155, "solids": 31}
    # lines cross-checked against the Gaussian binomial and brute force
    ok = ok and gaussian_binomial(5, 2) == 155
    brute = {rref((a, b)) for a in range(1, 32) for b in range(1, 32) if a != b}
    brute = {b for b in brute if len(b) == 2}
    ok = ok and sorted(brute) == [l.basis for l in enumerate_subspaces(5, 2)]
    _verdict(capfd, 1, ok, f"subspace counts {got}, brute-force lines {len(brute)}")


def test_criterion_2_reference_corpus(capsys):
    rc = cli.main(["verify-paper"])
    out = capsys.readouterr().out.strip().splitlines()
    ok = rc == 0 and len(out) == 5 and all(l.endswith("ok") for l in out)
    _verdict(capsys, 2, ok, f"exit {rc}; " + "; ".join(out))


@pytest.mark.slow
def test_criterion_3_exhaustive_spread_structure(bulk, capfd):
    t = tables()
    ok = len(bulk.line_ids) == FROZEN_SPREAD_COUNT
    ok = ok and (bulk.n_reguli == 4).all()
    ok = ok and bulk.type_counts() == FROZEN_TYPE_COUNTS
    ok = ok and sum(bulk.type_counts().values()) == len(bulk.line_ids)
    # every type-X spread: common line together with the 4 holes is a plane
    xi = np.flatnonzero(bulk.types == 0)
    xarr = bulk.line_ids[xi]
    common = np.take_along_axis(
        xarr, bulk.common_pos[xi].astype(np.int64)[:, None], axis=1
    )[:, 0]
    cover = np.zeros(len(xarr), dtype=np.uint32)
    for c in range(9):
        cover |= t.line_mask[xarr[:, c]]
    holes_mask = ~cover & np.uint32(0xFFFFFFFE)
    union = t.line_mask[common] | holes_mask
    plane_masks = np.array(
        sorted(p.mask for p in enumerate_subspaces(5, 3)), dtype=np.uint32
    )
    plane_ok = bool(np.isin(union, plane_masks).all())
    ok = ok and plane_ok
    _verdict(
        capfd,
        3,
        ok,
        f"{len(bulk.line_ids)} spreads, types {bulk.type_counts()}, "
        f"common∪holes plane check {plane_ok}",
    )


def test_type_split_by_double_counting():
    # criterion 3's numbers without the full enumeration: the orbits of
    # ``spread_orbits`` hold |GL(5,2)| / |Stab| spreads each.  Oracle: the
    # bulk classification of the spreads through line 0; the GL(5,2)
    # generators are transitive on lines (``spread_orbits`` certifies it) and
    # keep types, so each line lies on N_T(line 0) spreads of type T, and
    # each spread holds 9 lines: 155 N_T(line 0) = 9 N_T.  The count that
    # ``spread_orbits`` certifies goes through the pair of lines 0 and 29:
    # 8,680 pairs of disjoint lines, 36 in each spread
    sizes = {}
    for s, stab in spread_orbits():
        tag = classify(s).tag
        sizes[tag] = sizes.get(tag, 0) + 9_999_360 // stab
    assert sizes == FROZEN_TYPE_COUNTS
    assert sum(sizes.values()) == FROZEN_SPREAD_COUNT
    adj = tables().adjacency
    through_pair = sum(1 for _ in _clique_extend(adj, [0, 29], adj[0] & adj[29]))
    assert 8_680 * through_pair == 36 * FROZEN_SPREAD_COUNT
    rows = _clique_extend(adj, [0], adj[0])
    flat = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int16)
    through0 = classify_all(flat.reshape(-1, 9)).type_counts()
    assert {tag: N_LINES * n for tag, n in through0.items()} == {
        tag: 9 * n for tag, n in FROZEN_TYPE_COUNTS.items()
    }


def test_criterion_4_exhaustive_pattern_census(capfd):
    census = exhaustive_xx_census()
    ok = census.pair_count == FROZEN_PAIR_COUNT
    ok = ok and census.violations == []
    ok = ok and census.eliminated_pattern_count == 0
    ok = ok and set(census.by_pattern()) <= set(ALLOWED_PATTERNS)
    ok = ok and all(
        PATTERN_HOLES[p] == (m, h) for (p, m, h, _n) in census.histogram
    )
    ok = ok and census.histogram == FROZEN_HISTOGRAM
    openness = (
        "zero occurrences"
        if census.open_pattern_count == 0
        else f"{census.open_pattern_count} occurrences"
    )
    _verdict(
        capfd,
        4,
        ok,
        f"{census.pair_count} ordered pairs, {census.plane_count} planes, "
        f"eliminated (3,2,2,1) count {census.eliminated_pattern_count}, "
        f"pattern {OPEN_PATTERN} frequency: {openness}",
    )


def test_criterion_5_gabidulin_block(capfd):
    gab = build_lifted_gabidulin()
    dists = [
        subspace_distance(a, b)
        for a, b in itertools.combinations(gab.codewords, 2)
    ]
    sm = gab.special_plane.mask
    disjoint = all((c.mask & sm) == 1 for c in gab.codewords)
    ok = len(set(gab.codewords)) == 64 and min(dists) == 4 and disjoint
    _verdict(
        capfd,
        5,
        ok,
        f"64 codewords, min distance {min(dists)}, "
        f"special-plane disjointness {disjoint}",
    )


def test_criterion_6_hkk_pipeline(capfd):
    results = list(hkk_build(mode="first", limit=8))
    checks = []
    for res in results:
        rep = hkk_pattern_check(res)
        checks.append(
            len(set(res.code.codewords)) == 18
            and min_distance(res.code) == 3
            and rep.s1_tag == "X"
            and rep.s2_tag == "X"
            and rep.ninth_pattern in HKK_NINTH_PATTERNS
            and all(p in HKK_OTHER_PATTERNS for p in rep.other_patterns)
            and rep.regulus_free
        )
    ok = len(results) >= 1 and all(checks)
    _verdict(
        capfd, 6, ok, f"{len(results)} configs built, all structural checks {all(checks)}"
    )


def test_criterion_7_cps_pipeline(capfd, cps_completions):
    group = cps_group()
    orbits = cps_orbits()
    structure_ok = (
        len(group) == 6
        and len(orbits.good_line_orbits) >= 1
        and len(orbits.good_plane_orbits) >= 1
    )

    basic = list(cps_build("basic"))
    swap = list(cps_build("swap_reguli"))
    repl = list(cps_build("replace_plane"))
    basic_types = sorted(
        {(classify(c.s1).tag, classify(c.s2).tag) for c, _ in basic}
    )
    swap_types = sorted(
        {(classify(c.s1).tag, classify(c.s2).tag) for c, _ in swap}
    )
    repl_line_types = sorted({classify(c.s1).tag for c, _ in repl})
    repl_dual_types = sorted({classify(c.s2).tag for c, _ in repl})

    basic_optimal = all(validate_doubling(c.s1, c.s2).optimal for c, _ in basic)
    basic_regulus = all(cps_regulus_check(c) for c, _ in basic)

    # Type clause, against the enumeration oracle: the line spreads of all
    # three variants are regulus completions of a good line orbit, the
    # basic/swap_reguli dual spreads are regulus completions of the duals
    # of a good plane orbit, and regulus completions have only the types
    # the oracle certifies (so membership in ``reg`` bounds each spread's
    # type).  A regulus completion is never of type IDelta: a transitive
    # group gives every orbit line the same number of reguli inside the
    # orbit, which no IDelta spread minus a regulus allows.  The paper's
    # own statement of the CPS types is not in the repository; this
    # clause checks the construction as `cps_build` documents it.
    reg = {
        side: {k: tag for comp in comps for k, (r, tag) in comp.items() if r}
        for side, comps in cps_completions.items()
    }
    certified = sorted(set(reg["line"].values()) | set(reg["plane"].values()))
    line_spreads = [c.s1 for c, _ in basic + swap + repl]
    dual_spreads = [c.s2 for c, _ in basic + swap]
    from_orbits = all(s.key in reg["line"] for s in line_spreads) and all(
        s.key in reg["plane"] for s in dual_spreads
    )
    types_certified = certified == ["E", "X"]

    ok = (
        structure_ok
        and len(basic) >= 1
        and basic_optimal
        and basic_regulus
        and from_orbits
        and types_certified
    )
    _verdict(
        capfd,
        7,
        ok,
        f"group order {len(group)}, good orbits "
        f"{len(orbits.good_line_orbits)}/{len(orbits.good_plane_orbits)}; "
        f"basic: {len(basic)} codes, optimal {basic_optimal}, dual-regulus "
        f"{basic_regulus}, spread types {basic_types}; "
        f"swap_reguli types {swap_types}; "
        f"replace_plane line-spread types {repl_line_types}, "
        f"dual-spread types {repl_dual_types}; "
        f"orbit-plus-regulus spreads {from_orbits}, "
        f"certified regulus-completion types {certified}",
    )


def test_criterion_8_algebraic_property_suite(capfd):
    lines = enumerate_subspaces(5, 2)
    rng = random.Random(2024)
    all_subs = [s for d in (1, 2, 3, 4) for s in enumerate_subspaces(5, d)]

    involution = all(dual(dual(s)) == s for s in rng.sample(all_subs, 100))

    anti = True
    for a, b in itertools.combinations(lines, 2):
        if dual(meet(a, b)) != join(dual(a), dual(b)):
            anti = False
            break

    modular = all(
        a.dim + b.dim == meet(a, b).dim + join(a, b).dim
        for a, b in itertools.combinations(lines, 2)
    )

    sym = tri = True
    for _ in range(500):
        a, b, c = (rng.choice(all_subs) for _ in range(3))
        if subspace_distance(a, b) != subspace_distance(b, a):
            sym = False
        if subspace_distance(a, c) > subspace_distance(a, b) + subspace_distance(b, c):
            tri = False

    ok = involution and anti and modular and sym and tri
    _verdict(
        capfd,
        8,
        ok,
        f"duality involution {involution}, lattice anti-isomorphism {anti}, "
        f"modular dimension law {modular}, distance symmetry {sym}, "
        f"triangle inequality {tri}",
    )

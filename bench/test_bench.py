"""Fast tests of the benchmark's own geometry, inputs and checks.

Run with ``python3 -m pytest bench``.  Each check is shown to pass on a
right output and to reject a corrupted one: a dropped pair, a flipped
type or a wrong count.  None of this imports ``spreadcodes``.
"""

import itertools
import os
import random

import numpy as np
import pytest

import checks
import geometry as g
import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NINTH = {1: (2, 2, 2, 0), 2: (2, 2, 1, 1), 3: (3, 3, 1, 1), 4: (2, 2, 2, 2),
         5: (3, 3, 2, 2)}


@pytest.fixture(scope="module")
def refs():
    return inputs.reference_pairs(ROOT)


@pytest.fixture(scope="module")
def db():
    return inputs.make_db(7, ROOT)


def test_inverse_transpose_keeps_the_dot_product():
    rng = random.Random(1)
    for _ in range(20):
        cols = g.random_gl5(rng)
        p, q = g.point_map(cols), g.point_map(g.inverse_transpose(cols))
        assert sorted(p) == list(range(32))
        assert all(g.dot(p[a], q[b]) == g.dot(a, b) for a in range(32) for b in range(32))


def test_reference_pairs_are_optimal_xx(refs):
    assert len(refs) == 5
    for s1, s2 in refs:
        assert (g.spread_type(s1), g.spread_type(s2)) == ("X", "X")
        assert g.optimal(s1, s2)


def test_db_makeup(db):
    spreads = db["spreads"]
    types = [g.spread_type(s) for s in spreads]
    planted_x = 2 * inputs.PLANTED_PER_PAIR * 5
    assert types.count("X") == inputs.SAMPLED["X"] + planted_x
    assert types.count("E") == inputs.SAMPLED["E"]
    assert types.count("IDelta") == inputs.SAMPLED["IDelta"]
    assert len({frozenset(s) for s in spreads}) == len(spreads)
    for i, j, _n in db["planted"]:
        assert g.optimal(spreads[i], spreads[j])
    assert inputs.make_db(7, ROOT) == db


def test_db_file_round_trips(db, tmp_path):
    path = tmp_path / "db.txt"
    inputs.write_db(db, str(path), 7)
    assert g.parse_spreads(path.read_text()) == db["spreads"]


def test_verify_paper_check():
    good = "".join(f"pair {n}: ok\n" for n in range(1, 6))
    assert checks.verify_paper(0, good) == []
    assert checks.verify_paper(0, good.replace("pair 3: ok", "pair 3: FAIL (optimal)"))
    assert checks.verify_paper(0, good.replace("pair 5: ok\n", ""))
    assert checks.verify_paper(3, good)


def _table(types):
    rows = ["n  id  type  distinguished  holes  reguli"]
    rows += [f"{k}  id{k}  {t}  common line {{1,2,12}}  1,2  R123" for k, t in enumerate(types, 1)]
    return "\n".join(rows) + "\n"


def test_classify_check_rejects_a_flipped_or_dropped_type():
    types = ["X", "E", "IDelta", "X"]
    assert checks.classify_output(0, _table(types), types) == []
    assert checks.classify_output(0, _table(["X", "X", "IDelta", "X"]), types)
    assert checks.classify_output(0, _table(types[:3]), types)
    assert checks.classify_output(2, _table(types), types)


def _reports(db):
    """What a right ``doubling --search-db`` prints, from geometry alone."""
    spreads, ids = db["spreads"], [f"id{k}" for k in range(len(db["spreads"]))]
    ninth = {(i, j): NINTH[n] for i, j, n in db["planted"]}
    xs = [k for k, s in enumerate(spreads) if g.spread_type(s) == "X"]
    out = []
    for i, j in itertools.product(xs, xs):
        if g.optimal(spreads[i], spreads[j]):
            out.append({"s1": ids[i], "s2": ids[j], "optimal": True, "min_distance": 3,
                        "types": ["X", "X"],
                        "ninth_plane_pattern": list(ninth.get((i, j), (0, 0, 0, 0)))})
    return ids, out


def test_search_check_rejects_dropped_extra_and_wrong_pattern(db):
    ids, reports = _reports(db)
    args = (ids, db["spreads"], db["planted"], NINTH)
    assert checks.search_output(0, reports, *args) == []
    i, j, _n = db["planted"][0]
    planted = next(r for r in reports if (r["s1"], r["s2"]) == (ids[i], ids[j]))
    other = next(r for r in reports if r is not planted)
    assert checks.search_output(0, [r for r in reports if r is not other], *args)
    assert checks.search_output(0, [r for r in reports if r is not planted], *args)
    non_pair = next((a, b) for a in range(len(ids)) for b in range(len(ids))
                    if g.spread_type(db["spreads"][a]) == "X"
                    and not g.optimal(db["spreads"][a], db["spreads"][b]))
    extra = dict(other, s1=ids[non_pair[0]], s2=ids[non_pair[1]])
    assert checks.search_output(0, reports + [extra], *args)
    wrong = [dict(r, ninth_plane_pattern=[3, 3, 3, 1]) if r is planted else r
             for r in reports]
    assert checks.search_output(0, wrong, *args)
    assert checks.search_output(1, reports, *args)


def test_census_check_rejects_wrong_counts():
    good = {"pairs": 10, "planes": 90, "violations": [], "eliminated": 0}
    assert checks.census_summary(good, 10) == []
    assert checks.census_summary(good, 11)
    assert checks.census_summary(dict(good, planes=89), 10)
    assert checks.census_summary(dict(good, eliminated=1), 10)
    assert checks.census_summary(dict(good, violations=[("x",)]), 10)


def _code(refs):
    s1, s2 = refs[0]
    return list(s1), [g.dual(l) for l in s2]


def test_code_check_rejects_a_close_or_repeated_codeword(refs):
    lines, planes = _code(refs)
    assert checks.codes([(lines, planes)]) == []
    # a plane through a line of the code: distance 1
    close = planes[:8] + [g.span(lines[0], 1 << next(
        v for v in range(1, 32) if not lines[0] >> v & 1))]
    assert checks.codes([(lines, close)])
    assert checks.codes([(lines, planes[:8] + planes[:1])])


def test_hkk_check_rejects_a_flipped_type_or_bad_row(refs):
    code = _code(refs)
    row = {"s1": "X", "s2": "X", "min_dist": 3, "ok": True}
    assert checks.hkk_rows([row], [code]) == []
    assert checks.hkk_rows([dict(row, s2="E")], [code])
    assert checks.hkk_rows([dict(row, ok=False)], [code])
    assert checks.hkk_rows([dict(row, min_dist=2)], [code])
    assert checks.hkk_rows([], [code])


def test_cps_check_rejects_a_flipped_type_or_missing_regulus(refs):
    s1, s2 = refs[0]
    reg = next(t for t in itertools.combinations(range(9), 3)
               if g.is_regulus(*(s2[i] for i in t)))
    s2 = [l for k, l in enumerate(s2) if k not in reg] + [s2[k] for k in reg]
    code = (list(s1), [g.dual(l) for l in s2])
    row = {"s1_type": "X", "s2_type": "X", "min_dist": 3, "dual_regulus": True}
    assert checks.cps_rows("basic", [row], [code]) == []
    assert checks.cps_rows("basic", [dict(row, s1_type="E")], [code])
    assert checks.cps_rows("basic", [dict(row, dual_regulus=False)], [code])
    assert checks.cps_rows("replace_plane", [dict(row, dual_regulus=False)], [code]) == []
    assert checks.cps_rows("basic", [], [])


def test_enumeration_check():
    # ten disjoint "lines", every 9-subset once: each line in 9*10/10 rows
    masks = np.array([1 << i for i in range(1, 11)], dtype=np.uint32)
    rows = np.array(list(itertools.combinations(range(10), 9)), dtype=np.int16)
    assert checks.enumeration(rows, masks) == []
    assert checks.enumeration(rows[::-1], masks)
    assert checks.enumeration(np.vstack([rows[:1], rows]), masks)
    assert checks.enumeration(rows[1:], masks)
    meeting = masks.copy()
    meeting[0] |= meeting[1]
    assert checks.enumeration(rows, meeting)


def test_type_count_check():
    right = {"X": 416_640, "E": 1_666_560, "IDelta": 3_333_120}
    assert checks.type_counts(right) == []
    assert checks.type_counts(dict(right, X=416_639, E=1_666_561))


def test_sample_type_check(refs, db):
    sample = [s for pair in refs for s in pair] + db["spreads"][:20]
    tags = [g.spread_type(s) for s in sample]
    assert checks.sample_types(sample, tags, tags) == []
    flipped = ["E" if t == "X" else t for t in tags]
    assert checks.sample_types(sample, flipped, tags)
    assert checks.sample_types(sample, tags, flipped)


def test_census_limit_check():
    hist = {((2, 2, 2, 0), False, 1, False): 5, ((3, 3, 1, 1), True, 2, True): 4}

    one = {"pairs": 1, "histogram": hist, "planes": 9, "violations": [], "eliminated": 0}
    many = {"pairs": 3, "histogram": {k: 3 * c for k, c in hist.items()}, "planes": 27,
            "violations": [], "eliminated": 0}
    assert checks.census_limits(one, many, 3, {"pairs": 1, "histogram": hist}) == []
    assert checks.census_limits(one, many, 3, {"pairs": 0, "histogram": {}})
    assert checks.census_limits(one, dict(many, pairs=2), 3, {"pairs": 1, "histogram": hist})
    bad = dict(many, histogram={**many["histogram"], ((3, 2, 2, 1), True, 0, False): 1})
    assert checks.census_limits(one, bad, 3, {"pairs": 1, "histogram": hist})

"""Checks of the program's outputs against computations made apart from it.

Each check takes what the program produced, together with what the
benchmark computed itself with :mod:`geometry`, and returns a list of
problems: empty when the output is right.  No check compares against a
stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

import geometry as g

ELIMINATED_PATTERN = (3, 2, 2, 1)
# set-stabilizer order in GL(5,2) per type; type IDelta is two orbits
STABILIZER = {"X": 24, "E": 6, "IDelta": 6}
ORBITS = {"X": 1, "E": 1, "IDelta": 2}


def verify_paper(rc: int, text: str) -> list:
    want = [f"pair {n}: ok" for n in range(1, 6)]
    probs = [] if rc == 0 else [f"verify-paper exited {rc}"]
    if text.splitlines() != want:
        probs.append(f"verify-paper printed {text.splitlines()!r}")
    return probs


def classify_table_types(text: str) -> list:
    """Type column of ``classify``'s text table, in file order."""
    return [row.split()[2] for row in text.splitlines()[1:] if row.strip()]


def classify_output(rc: int, text: str, expected: list) -> list:
    """``classify FILE`` gave each spread of the file its expected type."""
    if rc != 0:
        return [f"classify exited {rc}"]
    got = classify_table_types(text)
    if len(got) != len(expected):
        return [f"classify listed {len(got)} spreads, the file holds {len(expected)}"]
    bad = [k for k, (a, b) in enumerate(zip(got, expected)) if a != b]
    return [f"classify: spread {k + 1} typed {got[k]}, expected {expected[k]}"
            for k in bad[:3]]


def search_output(rc: int, reports: list, ids: list, spreads: list,
                  planted: list, ninth_patterns: dict) -> list:
    """``doubling --search-db`` found exactly the optimal ordered (X,X) pairs.

    ``ids`` are the program's ids of the file's spreads, ``spreads`` their
    line masks, ``planted`` the ``(i, j, n)`` images of reference pair ``n``
    and ``ninth_patterns[n]`` that pair's ninth-plane pattern.
    """
    if rc != 0:
        return [f"doubling --search-db exited {rc}"]
    if len(set(ids)) != len(ids):
        return ["spread ids of the file are not unique"]
    pos = {sid: k for k, sid in enumerate(ids)}
    xs = [k for k, s in enumerate(spreads) if g.spread_type(s) == "X"]
    rows = np.array([[g.LINE_INDEX[l] for l in spreads[k]] for k in xs])
    ok = g.partners(g.perp_table(), rows, rows)
    expected = {(xs[a], xs[b]) for a, b in zip(*np.nonzero(ok))}
    got = {}
    probs = []
    for r in reports:
        key = (pos.get(r["s1"]), pos.get(r["s2"]))
        got[key] = r
        if not (r.get("optimal") and r.get("min_distance") == 3
                and r.get("types") == ["X", "X"]):
            probs.append(f"search report {r['s1']}/{r['s2']} is not an optimal X/X code")
    if len(got) != len(reports):
        probs.append("search reported a pair twice")
    if set(got) != expected:
        missing, extra = expected - set(got), set(got) - expected
        probs.append(f"search found {len(got)} pairs, expected {len(expected)}: "
                     f"{len(missing)} missing, {len(extra)} extra")
    for i, j, n in planted:
        r = got.get((i, j))
        if r is None:
            probs.append(f"planted image of pair {n} at ({i}, {j}) not found")
        elif tuple(r.get("ninth_plane_pattern", ())) != tuple(ninth_patterns[n]):
            probs.append(f"planted image of pair {n}: ninth pattern "
                         f"{r.get('ninth_plane_pattern')}, expected {ninth_patterns[n]}")
    return probs


def census_summary(summary: dict, pairs: int) -> list:
    """A census over ``pairs`` optimal (X,X) pairs is complete and clean."""
    probs = []
    if summary["pairs"] != pairs:
        probs.append(f"census counted {summary['pairs']} pairs, expected {pairs}")
    if summary["planes"] != 9 * summary["pairs"]:
        probs.append(f"census counted {summary['planes']} planes for "
                     f"{summary['pairs']} pairs")
    if summary["violations"]:
        probs.append(f"census violations: {summary['violations'][:3]}")
    if summary["eliminated"]:
        probs.append(f"eliminated pattern {ELIMINATED_PATTERN} counted "
                     f"{summary['eliminated']} times")
    return probs


def codes(built: list) -> list:
    """Each code (9 line masks, 9 plane masks) has 18 codewords at distance 3."""
    probs = []
    for k, (lines, planes) in enumerate(built):
        words = list(lines) + list(planes)
        if len(set(words)) != 18:
            probs.append(f"code {k} has {len(set(words))} distinct codewords")
        if [g.dim(w) for w in words] != [2] * 9 + [3] * 9:
            probs.append(f"code {k} is not 9 lines and 9 planes")
            continue
        d = min(g.subspace_distance(u, v)
                for a, u in enumerate(words) for v in words[a + 1:])
        if d != 3:
            probs.append(f"code {k} has minimum distance {d}")
    return probs


def hkk_rows(rows: list, built: list) -> list:
    """Every ``hkk`` row is an ok X/X code, as its built code shows."""
    if len(rows) != len(built):
        return [f"hkk printed {len(rows)} rows for {len(built)} codes"]
    probs = codes(built)
    for k, (r, (lines, planes)) in enumerate(zip(rows, built)):
        types = (g.spread_type(lines), g.spread_type([g.dual(p) for p in planes]))
        if not r["ok"] or (r["s1"], r["s2"]) != ("X", "X") or types != ("X", "X"):
            probs.append(f"hkk row {k}: ok={r['ok']}, types {r['s1']}/{r['s2']}, "
                         f"recomputed {types[0]}/{types[1]}")
        if r["min_dist"] != 3:
            probs.append(f"hkk row {k}: min_dist {r['min_dist']}")
    return probs


def cps_rows(variant: str, rows: list, built: list) -> list:
    """``cps`` rows match their codes: line spreads X or E, dual reguli."""
    if len(rows) != len(built) or not rows:
        return [f"cps {variant} printed {len(rows)} rows for {len(built)} codes"]
    probs = codes(built)
    for k, (r, (lines, planes)) in enumerate(zip(rows, built)):
        duals = [g.dual(p) for p in planes]
        t1, t2 = g.spread_type(lines), g.spread_type(duals)
        if t1 not in ("X", "E") or (r["s1_type"], r["s2_type"]) != (t1, t2):
            probs.append(f"cps {variant} row {k}: types {r['s1_type']}/{r['s2_type']}, "
                         f"recomputed {t1}/{t2}")
        if r["min_dist"] != 3:
            probs.append(f"cps {variant} row {k}: min_dist {r['min_dist']}")
        if variant in ("basic", "swap_reguli") and not (
            r["dual_regulus"] and g.is_regulus(*duals[6:])
        ):
            probs.append(f"cps {variant} row {k}: non-orbit duals are not a regulus")
    return probs


# ---------------------------------------------------------------------------
# exhaustive workload


def enumeration(rows: np.ndarray, line_mask: np.ndarray) -> list:
    """Rows are distinct spreads in lexicographic order, balanced over lines.

    ``line_mask[i]`` is the point mask of the program's line ``i``.  Over
    all spreads of PG(4,2) every one of the n = 155 lines lies in exactly
    9M/n rows, since GL(5,2) is transitive on lines.
    """
    probs = []
    m, n = len(rows), len(line_mask)
    if rows.ndim != 2 or rows.shape[1] != 9 or m < 2:
        return [f"enumeration has shape {rows.shape}"]
    if not (np.diff(rows, axis=1) > 0).all():
        probs.append("a row is not strictly increasing")
    masks = line_mask[rows]
    for i in range(9):
        for j in range(i + 1, 9):
            if (masks[:, i] & masks[:, j]).any():
                probs.append(f"lines in columns {i} and {j} meet in some row")
    d = np.diff(rows.astype(np.int32), axis=0)
    nz = d != 0
    first = d[np.arange(m - 1), nz.argmax(axis=1)]
    if not (nz.any(axis=1) & (first > 0)).all():
        probs.append("rows are not unique and in lexicographic order")
    per_line = np.bincount(rows.reshape(-1), minlength=n)
    if 9 * m % n or not (per_line == 9 * m // n).all():
        probs.append(f"lines lie in {per_line.min()}..{per_line.max()} rows, "
                     f"expected 9*{m}/{n} each")
    return probs


def type_counts(counts: dict) -> list:
    """Orbit-stabilizer: count * stabilizer order = orbits * |GL(5,2)|."""
    return [f"{t}: {counts.get(t)} spreads * {STABILIZER[t]} != "
            f"{ORBITS[t]} * {g.GL5_ORDER}"
            for t in g.TYPES
            if counts.get(t, 0) * STABILIZER[t] != ORBITS[t] * g.GL5_ORDER]


def sample_types(sample: list, bulk: list, objects: list) -> list:
    """Bulk and object-level types agree with each other and with geometry.

    ``sample`` holds spreads as line masks; ``bulk`` and ``objects`` are the
    program's tags for them from ``classify_all`` and ``classify``.
    """
    probs = []
    for k, s in enumerate(sample):
        t = g.spread_type(s)
        if bulk[k] != t or objects[k] != t:
            probs.append(f"sample row {k}: classify_all {bulk[k]}, "
                         f"classify {objects[k]}, recomputed {t}")
    return probs[:3]


def census_limits(one: dict, many: dict, k: int, recomputed: dict) -> list:
    """The limit-1 census equals a recomputation; the limit-k one is k times it.

    Each argument is ``{"pairs": n, "histogram": {key: count}, ...}``.  Every
    X spread is a collineation image of S1 #0, so each has as many
    partners and the same histogram.
    """
    probs = []
    if (one["pairs"], one["histogram"]) != (recomputed["pairs"], recomputed["histogram"]):
        probs.append(f"census of S1 #0: {one['pairs']} pairs, recomputed "
                     f"{recomputed['pairs']}, histograms "
                     f"{'equal' if one['histogram'] == recomputed['histogram'] else 'differ'}")
    scaled = {key: k * c for key, c in one["histogram"].items()}
    if many["pairs"] != k * one["pairs"] or many["histogram"] != scaled:
        probs.append(f"census of {k} S1: {many['pairs']} pairs, "
                     f"expected {k} * {one['pairs']} with a scaled histogram")
    return probs + census_summary(many, k * one["pairs"])

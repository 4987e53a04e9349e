"""Seeded input of the ``db`` workload: a spread file with planted pairs.

The file holds collineation images of the five reference pairs of the
corpus (each image an optimal (X,X) pair with the ninth-plane pattern of
its source pair) and greedy random spreads of each type, in a seeded
shuffled order.  The type quotas are fixed, so every seed gives the same
number of ordered (X,X) pairs to test.
"""

from __future__ import annotations

import os
import random

import numpy as np

import geometry as g

PLANTED_PER_PAIR = 2
SAMPLED = {"X": 20, "E": 40, "IDelta": 80}
CORPUS_DIR = os.path.join("src", "spreadcodes", "data")


def reference_pairs(root: str) -> list:
    """The corpus pairs as (S1, S2) lists of line masks, read from its files."""
    out = []
    for n in range(1, 6):
        with open(os.path.join(root, CORPUS_DIR, f"pair{n}.txt"), encoding="ascii") as fh:
            s1, s2 = g.parse_spreads(fh.read())
        out.append((s1, s2))
    return out


def make_db(seed: int, root: str) -> dict:
    """The spreads of the file (lists of 9 line masks) and the planted pairs.

    ``planted`` holds ``(i, j, n)``: spreads ``i`` and ``j`` of the file form
    an image of reference pair ``n``.  An image applies a random g in
    GL(5,2) to S1 and g^{-T} to S2, so the code S1 ∪ (S2)^⊥ is mapped by g
    as a whole and keeps its optimality, types and plane patterns.  A type-X
    spread is kept only if it forms no optimal pair, in either order or with
    itself, with the type-X spreads kept before it, its planted partner
    aside: the optimal ordered (X,X) pairs of the file are then exactly the
    planted pairs in both orders, and every seed gives the search and the
    census the same amount of work.
    """
    rng = random.Random(seed)
    perp = [set(np.flatnonzero(row)) for row in g.perp_table()]
    entries, planted, seen, forbidden = [], [], set(), []

    def lines_forbidden_by(lines9) -> set:
        return set().union(*(perp[g.LINE_INDEX[l]] for l in lines9))

    def free(lines9) -> bool:
        """No optimal pair with itself or with a kept type-X spread."""
        f = lines_forbidden_by(lines9)
        ids = {g.LINE_INDEX[l] for l in lines9}
        return (frozenset(lines9) not in seen and bool(ids & f)
                and all(ids & other for other in forbidden))

    def add(lines9, is_x: bool) -> None:
        seen.add(frozenset(lines9))
        entries.append(list(lines9))
        if is_x:
            forbidden.append(lines_forbidden_by(lines9))

    for n, (s1, s2) in enumerate(reference_pairs(root), 1):
        made = 0
        while made < PLANTED_PER_PAIR:
            cols = g.random_gl5(rng)
            p, q = g.point_map(cols), g.point_map(g.inverse_transpose(cols))
            a = [g.image(l, p) for l in s1]
            b = [g.image(l, q) for l in s2]
            if set(a) == set(b) or not (free(a) and free(b)):
                continue
            add(a, True)
            add(b, True)
            planted.append((len(entries) - 2, len(entries) - 1, n))
            made += 1

    counts = dict.fromkeys(SAMPLED, 0)
    while counts != SAMPLED:
        s = g.random_spread(rng)
        t = g.spread_type(s)
        if counts[t] < SAMPLED[t] and (free(s) if t == "X" else frozenset(s) not in seen):
            add(s, t == "X")
            counts[t] += 1

    order = list(range(len(entries)))
    rng.shuffle(order)
    new = {old: k for k, old in enumerate(order)}
    return {
        "spreads": [entries[k] for k in order],
        "planted": [(new[i], new[j], n) for i, j, n in planted],
    }


def write_db(db: dict, path: str, seed: int) -> None:
    body = "\n\n".join(g.format_spread(s) for s in db["spreads"])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# db workload input, seed {seed}\n\n{body}\n")

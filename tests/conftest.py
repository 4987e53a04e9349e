import itertools
import random

import pytest

from spreadcodes import corpus
from spreadcodes.constructions import cps_orbits
from spreadcodes.gf2geom import format_point
from spreadcodes.pg42 import N_LINES, tables
from spreadcodes.spreads import Spread, classify, is_regulus


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: exhaustive enumerations taking minutes"
    )


def dot(a: int, b: int) -> int:
    """Standard dot product of two GF(2) vectors: the parity of the bits
    they share."""
    return (a & b).bit_count() & 1


def act_vector(v: int, m) -> int:
    """The row vector ``v`` times the matrix ``m`` over GF(2): the oracle
    for point tables (``gf2geom.span``).

    ``m`` is a tuple of row vectors stored as ints, like every vector here:
    row ``i`` is the image of basis vector ``i + 1`` (bit ``i``).
    """
    out = 0
    for row in m:
        if v & 1:
            out ^= row
        v >>= 1
    return out


def format_spread(s: Spread) -> str:
    """One spread as a single line of a spread file; points of each line
    ascending."""
    return ",".join(
        "{" + ",".join(format_point(v) for v in l.points()) + "}" for l in s.lines
    )


def format_spreads(spreads) -> str:
    """The text of a spread file holding ``spreads``, one block each."""
    return "\n\n".join(format_spread(s) for s in spreads) + "\n"


@pytest.fixture(scope="session")
def reference_pairs():
    return [corpus.pair(n) for n in range(1, corpus.N_PAIRS + 1)]


def _sample_spreads(count: int, seed: int) -> list:
    """``count`` distinct spreads from randomized greedy clique completions
    on the line-disjointness graph, in the order found; the same list for
    the same ``seed``."""
    adj = tables().adjacency
    rng = random.Random(seed)
    keys, out = set(), []
    while len(out) < count:
        cur, cand = [], (1 << N_LINES) - 1
        while cand and len(cur) < 9:
            j = rng.choice([k for k in range(N_LINES) if cand >> k & 1])
            cur.append(j)
            cand &= adj[j]
        key = tuple(sorted(cur))
        if len(cur) == 9 and key not in keys:
            keys.add(key)
            out.append(Spread.from_line_ids(cur))
    return out


@pytest.fixture(scope="session")
def sample_spreads():
    """The seeded spread sampler ``sample_spreads(count, seed)``."""
    return _sample_spreads


@pytest.fixture(scope="session")
def bulk():
    """Exhaustive spread enumeration + classification (about 2 minutes)."""
    from spreadcodes.spreads import classify_all

    return classify_all()


def _completions(six_ids) -> dict:
    """Every 9-line spread containing the 6 pairwise-disjoint lines with
    these ids.

    Maps the spread's key to ``(regulus, tag)``: whether the 3 added lines
    form a regulus, and the spread's type.
    """
    lines = tables().lines
    cand = [
        i
        for i, l in enumerate(lines)
        if all((l.mask & lines[x].mask) == 1 for x in six_ids)
    ]
    out = {}
    for t in itertools.combinations(cand, 3):
        a, b, c = (lines[i].mask for i in t)
        if (a & b) == (a & c) == (b & c) == 1:
            s = Spread.from_line_ids(six_ids + t)
            out[s.key] = (is_regulus(t), classify(s).tag)
    return out


@pytest.fixture(scope="session")
def cps_good_orbits():
    """Good line orbits of the CPS group (side ``"line"``) and the duals of
    its good plane orbits (side ``"plane"``), as the ids of 6 disjoint lines
    each: a plane's id is its dual line's."""
    orbits = cps_orbits()
    return {
        "line": [tuple(orbits.line_orbits[k]) for k in orbits.good_line_orbits],
        "plane": [tuple(orbits.plane_orbits[k]) for k in orbits.good_plane_orbits],
    }


@pytest.fixture(scope="session")
def cps_completions(cps_good_orbits):
    """Oracle for the spread types of the CPS pipeline, by enumeration.

    Per side of ``cps_good_orbits``, one ``_completions`` dict per orbit:
    all its completions to a 9-line spread by lines of PG(4,2).
    Independent of ``cps_build``.
    """
    return {
        side: [_completions(o) for o in orbs]
        for side, orbs in cps_good_orbits.items()
    }

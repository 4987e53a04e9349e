"""The reference corpus: five worked (X,X) doubling pairs.

Each pair ships as a spread file with two blocks (first spread, then the
spread whose dual planes complete the code).  ``EXPECTED`` records the
facts the implementation must reproduce for each pair: both spreads are
type X, the pair is optimal with minimum distance 3, and the plane dual
to the second spread's common line shows the stated intersection pattern.
Reguli are named R_{ijk} by 1-based positions in the stored line order.
"""

from __future__ import annotations

from importlib import resources

from .spreadfile import parse_spread_text
from .spreads import SpreadAnomaly

__all__ = ["pair", "EXPECTED"]

N_PAIRS = 5

# per pair: pattern of the ninth plane, plus (where pinned) the regulus
# index triples of the first spread (1-based positions)
EXPECTED = {
    1: {"ninth_pattern": (2, 2, 2, 0), "reguli": ((1, 3, 9), (2, 4, 9), (5, 7, 9), (6, 8, 9))},
    2: {"ninth_pattern": (2, 2, 1, 1)},
    3: {"ninth_pattern": (3, 3, 1, 1)},
    4: {"ninth_pattern": (2, 2, 2, 2)},
    5: {"ninth_pattern": (3, 3, 2, 2), "reguli": ((1, 7, 9), (2, 8, 9), (3, 5, 9), (4, 6, 9))},
}


def pair(n: int) -> tuple:
    """The n-th reference pair (1-based) as (Spread, Spread)."""
    if not 1 <= n <= N_PAIRS:
        raise ValueError(f"no reference pair {n}")
    text = (
        resources.files("spreadcodes")
        .joinpath(f"data/pair{n}.txt")
        .read_text(encoding="ascii")
    )
    spreads = parse_spread_text(text)
    if len(spreads) != 2:
        raise SpreadAnomaly(f"corpus pair {n} must hold exactly 2 spreads")
    return spreads[0], spreads[1]

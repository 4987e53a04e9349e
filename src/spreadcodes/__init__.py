"""Finite-geometry engine for optimal (5,3) doubling subspace codes in PG(4,2).

Subpackages:

* :mod:`spreadcodes.gf2geom` -- exact GF(2) linear algebra and duality
* :mod:`spreadcodes.spreads` -- maximal partial line spreads, reguli, types
* :mod:`spreadcodes.doubling` -- doubling codes and the pattern census
* :mod:`spreadcodes.orbits` -- GL(5,2) orbits of spreads, loaded by the census
* :mod:`spreadcodes.constructions` -- HKK and CPS construction pipelines
* :mod:`spreadcodes.cli` -- command-line front end
"""

__version__ = "0.1.0"

from .gf2geom import (  # noqa: F401
    Subspace,
    meet,
    join,
    dual,
    subspace_distance,
    enumerate_subspaces,
    parse_point,
    format_point,
)
from .spreads import (  # noqa: F401
    Spread,
    SpreadError,
    SpreadAnomaly,
    classify,
    holes,
    is_regulus,
    dual_spread,
)
from .doubling import (  # noqa: F401
    DoublingCode,
    validate_doubling,
    min_distance,
    intersection_pattern,
    pattern_census,
)

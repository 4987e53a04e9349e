"""Reading and writing spread files in compact point notation.

Grammar: a file is a sequence of blocks separated by one or more blank
lines; ``#`` starts a comment running to end of line.  Each block holds
exactly 9 lines, each written as three comma-separated point tokens in
braces, e.g. ``{1,25,125}``; braces groups are separated by commas or
whitespace and may wrap across physical lines within a block.  A file with
no block is an error.
"""

from __future__ import annotations

import re
from typing import List

from .gf2geom import format_point, parse_point, rank
from .pg42 import tables
from .spreads import Spread, SpreadError

__all__ = ["ParseError", "parse_spread_text", "load_spread_file",
           "format_spread", "format_spreads"]

_GROUP = re.compile(r"\{([^{}]*)\}")


class ParseError(ValueError):
    """Malformed spread file; carries the 1-based source line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _line_id(tokens, lineno: int, points: dict) -> int:
    """The table ID of the line whose 3 points the tokens list.

    ``points`` caches token -> point for one parse.  The mask of the three
    points is a line's mask iff they are its 3 points; only a miss works
    out which error to report.
    """
    pts = []
    for tok in tokens:
        p = points.get(tok)
        if p is None:
            try:
                p = points[tok] = parse_point(tok, 5)
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from None
        pts.append(p)
    a, b, c = pts
    i = tables().line_id.get(1 | 1 << a | 1 << b | 1 << c)
    if i is not None:
        return i
    dim = rank(pts)
    if dim != 2:
        raise ParseError(
            f"points {{{','.join(tokens)}}} span dimension {dim}, not a line",
            lineno,
        )
    raise ParseError(
        f"{{{','.join(tokens)}}} does not list the 3 points of a line", lineno
    )


def parse_spread_text(text: str) -> List[Spread]:
    """Parse every spread block in the given text."""
    # blocks: group physical lines, splitting on blank (after comment strip)
    blocks = []  # list of (start_lineno, payload)
    cur: list = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            if cur:
                blocks.append(cur)
                cur = []
            continue
        cur.append((lineno, body))
    if cur:
        blocks.append(cur)
    if not blocks:
        raise ParseError("no spread block", 1)

    points: dict = {}
    spreads = []
    for block in blocks:
        start = block[0][0]
        payload = " ".join(body for _, body in block)
        leftovers = _GROUP.sub("", payload).replace(",", " ").strip()
        if leftovers:
            raise ParseError(
                f"unexpected text {leftovers.split()[0]!r} outside braces", start
            )
        groups = _GROUP.findall(payload)
        if len(groups) != 9:
            raise ParseError(
                f"block has {len(groups)} brace groups, expected 9", start
            )
        ids = []
        for g in groups:
            tokens = [t.strip() for t in g.split(",") if t.strip()]
            if len(tokens) != 3:
                raise ParseError(
                    f"{{{g}}} has {len(tokens)} tokens, expected 3", start
                )
            ids.append(_line_id(tokens, start, points))
        try:
            spreads.append(Spread.from_line_ids(ids))
        except SpreadError as exc:
            raise ParseError(f"invalid spread: {exc}", start) from None
    return spreads


def load_spread_file(path) -> List[Spread]:
    """Parse an ASCII spread file; a non-ASCII byte is a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "x").splitlines())
        raise ParseError(f"non-ASCII byte 0x{data[exc.start]:02x}", line) from None
    return parse_spread_text(text)


def format_spread(s: Spread) -> str:
    """One spread as a single text line; points of each line ascending."""
    parts = []
    for l in s.lines:
        parts.append("{" + ",".join(format_point(v) for v in l.points()) + "}")
    return ",".join(parts)


def format_spreads(spreads) -> str:
    return "\n\n".join(format_spread(s) for s in spreads) + "\n"

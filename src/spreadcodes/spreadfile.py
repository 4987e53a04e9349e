"""Reading and writing spread files in compact point notation.

Grammar: a file is a sequence of blocks separated by one or more blank
lines; ``#`` starts a comment running to end of line.  Each block holds
exactly 9 lines, each written as three comma-separated point tokens in
braces, e.g. ``{1,25,125}``; braces groups are separated by commas or
whitespace and may wrap across physical lines within a block.
"""

from __future__ import annotations

import re
from typing import List

from .gf2geom import Subspace, format_point, parse_point
from .spreads import Spread, SpreadError

__all__ = ["ParseError", "parse_spread_text", "load_spread_file",
           "format_spread", "format_spreads"]

_GROUP = re.compile(r"\{([^{}]*)\}")


class ParseError(ValueError):
    """Malformed spread file; carries the 1-based source line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _line_from_tokens(tokens, lineno: int) -> Subspace:
    pts = []
    for tok in tokens:
        try:
            pts.append(parse_point(tok, 5))
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
    sub = Subspace(pts, 5)
    if sub.dim != 2:
        raise ParseError(
            f"points {{{','.join(tokens)}}} span dimension {sub.dim}, not a line",
            lineno,
        )
    # the three tokens must actually be the 3 points of the line
    if sorted(pts) != list(sub.points()):
        raise ParseError(
            f"{{{','.join(tokens)}}} does not list the 3 points of a line",
            lineno,
        )
    return sub


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
        lines = []
        for g in groups:
            tokens = [t.strip() for t in g.split(",") if t.strip()]
            if len(tokens) != 3:
                raise ParseError(
                    f"{{{g}}} has {len(tokens)} tokens, expected 3", start
                )
            lines.append(_line_from_tokens(tokens, start))
        try:
            spreads.append(Spread(lines))
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

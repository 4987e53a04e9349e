"""Command-line front end.

Every file a command writes goes through one writer, `_write_outputs`:
each file atomically as a plain ``open(path, "w")`` would write it (through
a link, keeping an existing file's mode), then one JSON manifest beside ``--out``
(command, arguments, version, timestamp, SHA-256 of each file).  A path that
exists and is not a regular file is refused before anything is written.
Without ``--out`` the output goes to stdout; an empty ``--out`` is a usage
error.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 mathematical
invariant violated (a structural fact the library treats as a theorem
failed to verify, raised as a `SpreadAnomaly` -- kept distinct so
automation can tell refutations from ordinary bugs).
"""

from __future__ import annotations

import argparse
import errno
import functools
import hashlib
import io
import json
import os
import stat
import sys
import tempfile
import time

from . import __version__
from .doubling import (
    DoublingCode,
    exhaustive_xx_census,
    intersection_pattern,
    min_distance,
    optimal_pairs,
    pattern_census,
    validate_doubling,
)
from .gf2geom import enumerate_subspaces, format_point, point_to_bitstring
from .spreads import Spread, SpreadAnomaly, classify, holes
from .spreadfile import ParseError, load_spread_file

USAGE_ERROR, PARSE_ERROR, INVARIANT_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# output plumbing


def _atomic_write(path: str, data: str) -> str:
    umask = os.umask(0)
    os.umask(umask)
    try:
        real = os.path.realpath(path)  # a link's target, as open(path, "w")
        mode = os.stat(real).st_mode if os.path.exists(real) else 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(real), prefix=".tmp-")
        try:
            os.fchmod(fd, mode & 0o777)  # mkstemp makes the file 0600
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, real)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # name the path asked for, not the temporary file beside it
        raise OSError(exc.errno, exc.strerror, path) from None
    return hashlib.sha256(data.encode()).hexdigest()


def _write_outputs(args, files: dict):
    """Write each ``path: text`` of ``files``, then ``--out``'s manifest: the
    command, its arguments, the version, the time of writing, and the
    SHA-256 of each file, in this key order.

    Nothing is written if any of these paths exists and is not a regular
    file, such as a FIFO or a device node, which replacing would turn into
    one.  The check stats the path: opening a FIFO for writing blocks."""
    manifest_path = args.out + ".manifest.json"
    for path in (*files, manifest_path):
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            continue
        if not stat.S_ISREG(mode):
            raise OSError(errno.EEXIST, "exists and is not a regular file", path)
    outputs = {path: _atomic_write(path, text) for path, text in files.items()}
    manifest = {
        "command": args.cmd,
        "arguments": args.argv,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "outputs": outputs,
    }
    _atomic_write(manifest_path, json.dumps(manifest, indent=2) + "\n")


def _emit(args, text: str):
    if args.out:
        _write_outputs(args, {args.out: text})
    else:
        sys.stdout.write(text)


def _tabulate(rows, header, fmt):
    if fmt == "json":
        return json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        return buf.getvalue()
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    out = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in rows:
        out.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_enumerate(args):
    dims = {"points": 1, "lines": 2, "planes": 3, "solids": 4}
    subs = enumerate_subspaces(5, dims[args.kind])
    rows = [
        (i, ",".join(map(format_point, s.basis)),
         " ".join(map(point_to_bitstring, s.basis)))
        for i, s in enumerate(subs[: args.limit])
    ]
    text = _tabulate(rows, ("id", "generators", "basis_bits"), args.format)
    text += f"total: {len(subs)}\n" if args.format == "text" else ""
    _emit(args, text)
    return 0


def _spread_record(s: Spread) -> dict:
    """One spread's classification: the fields every ``classify`` format
    prints."""
    st = classify(s)
    rec = {
        "id": s.id,
        "type": st.tag,
        "holes": [format_point(h) for h in holes(s)],
        "reguli": [[i + 1 for i in t] for t in st.reguli],
    }
    if st.tag == "X":
        rec["common_line"] = "{%s}" % ",".join(
            format_point(v) for v in s.lines[st.distinguished].points()
        )
    else:
        rec["distinguished_regulus"] = [i + 1 for i in st.distinguished]
    return rec


def cmd_classify(args):
    spreads = load_spread_file(args.file)
    recs = [_spread_record(s) for s in spreads]
    if args.format == "json":
        # json alone lists the basis bits, second after the id
        recs = [
            {"id": s.id,
             "lines": [[point_to_bitstring(v) for v in l.basis] for l in s.lines],
             **rec}
            for s, rec in zip(spreads, recs)
        ]
        _emit(args, json.dumps(recs, indent=2) + "\n")
        return 0
    rows = []
    for k, rec in enumerate(recs, 1):
        if "common_line" in rec:
            dist = f"common line {rec['common_line']}"
        else:
            dist = "distinguished regulus R" + "".join(
                map(str, rec["distinguished_regulus"])
            )
        regs = " ".join("R" + "".join(map(str, t)) for t in rec["reguli"])
        rows.append((k, rec["id"], rec["type"], dist, ",".join(rec["holes"]), regs))
    _emit(
        args,
        _tabulate(rows, ("n", "id", "type", "distinguished", "holes", "reguli"),
                  args.format),
    )
    return 0


def _pair_report(s1: Spread, s2: Spread):
    """The report of one pair."""
    v = validate_doubling(s1, s2)
    rec = {"s1": s1.id, "s2": s2.id, "optimal": v.optimal}
    if not v.optimal:
        i, j = v.witness
        rec["witness"] = f"line {i + 1} of s1 inside dual plane {j + 1} of s2"
        return rec
    code = DoublingCode(s1, s2)
    rec["min_distance"] = min_distance(code)
    t1, t2 = classify(s1), classify(s2)
    rec["types"] = [t1.tag, t2.tag]
    if t1.tag == "X":
        pats = [intersection_pattern(p, s1) for p in code.planes]
        rec["patterns"] = [list(p.counts) for p in pats]
        if t2.tag == "X":
            rec["ninth_plane_pattern"] = list(pats[t2.distinguished].counts)
    return rec


def cmd_doubling(args):
    if args.search_db:
        db = load_spread_file(args.search_db)
        pairs = optimal_pairs(db, tuple(args.filter or ("X", "X")))
        if args.limit is not None:  # a range, unlike islice, takes any int
            pairs = (p for _, p in zip(range(args.limit), pairs))
        out = [_pair_report(db[i], db[j]) for i, j in pairs]
        _emit(args, json.dumps(out, indent=2) + "\n")
        return 0
    s1s = load_spread_file(args.file1)
    s2s = load_spread_file(args.file2)
    if len(s1s) != len(s2s):
        print(
            f"error: {args.file1} holds {len(s1s)} spreads but {args.file2} "
            f"holds {len(s2s)}; pairs need equal counts",
            file=sys.stderr,
        )
        return USAGE_ERROR
    reports = [_pair_report(s1, s2) for s1, s2 in zip(s1s, s2s)]
    if args.format == "json":
        _emit(args, json.dumps(reports, indent=2) + "\n")
    else:
        lines = []
        for k, r in enumerate(reports, 1):
            if r["optimal"]:
                lines.append(
                    f"pair {k}: optimal, min distance {r['min_distance']}, "
                    f"types {r['types'][0]}/{r['types'][1]}"
                    + (
                        f", ninth plane pattern {tuple(r['ninth_plane_pattern'])}"
                        if "ninth_plane_pattern" in r
                        else ""
                    )
                )
            else:
                lines.append(f"pair {k}: invalid ({r['witness']})")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_census(args):
    if args.exhaustive:
        census = exhaustive_xx_census(limit=args.limit)
    else:
        db = load_spread_file(args.db)
        census = pattern_census((db[i], db[j]) for i, j in optimal_pairs(db))
    violations = census.violations
    header = ("pattern", "meets_a9", "holes", "ninth", "count")
    hist = sorted(census.histogram.items())
    if args.out:
        summary = {
            "pairs": census.pair_count,
            "planes": census.plane_count,
            "open_pattern_count": census.open_pattern_count,
            "eliminated_pattern_count": census.eliminated_pattern_count,
            "violations": violations,
        }
        rows = [("".join(map(str, counts)), int(meets), holes_, int(ninth), c)
                for (counts, meets, holes_, ninth), c in hist]
        _write_outputs(args, {
            args.out: _tabulate(rows, header, "csv"),
            args.out + ".summary.json": json.dumps(summary, indent=2) + "\n",
        })
    rows = [(str(counts), meets, holes_, ninth, c)
            for (counts, meets, holes_, ninth), c in hist]
    sys.stdout.write(
        _tabulate(rows, header, "text")
        + f"pairs: {census.pair_count}\n"
        + f"open pattern (3,3,3,1) count: {census.open_pattern_count}\n"
        + f"violations: {len(violations)}\n"
    )
    if violations:
        raise SpreadAnomaly(f"census violations: {violations[:3]}")
    return 0


def cmd_hkk(args):
    from . import constructions as cons

    stats: dict = {}
    rows = []
    for res in cons.hkk_build(mode=args.mode, limit=args.limit, stats=stats):
        rep = cons.hkk_pattern_check(res)
        rows.append(
            (
                res.config.p,
                ",".join(format_point(v, 6) for v in res.config.h.basis),
                rep.s1_tag,
                rep.s2_tag,
                min_distance(res.code),
                str(rep.ninth_pattern),
                rep.ok,
            )
        )
        if not rep.ok:
            raise SpreadAnomaly(f"HKK structural check failed: {rep}")
    text = _tabulate(
        rows, ("P", "H_basis", "s1", "s2", "min_dist", "ninth_pattern", "ok"),
        args.format,
    )
    if args.format == "text":
        text += f"configs emitted: {len(rows)}, discarded: {stats.get('discarded', 0)}\n"
    _emit(args, text)
    return 0


def cmd_cps(args):
    from . import constructions as cons

    rows = []
    for code, cfg in cons.cps_build(variant=args.variant, limit=args.limit):
        t1 = classify(code.s1)
        t2 = classify(code.s2)
        reg_ok = cons.cps_regulus_check(code)
        rows.append(
            (
                cfg.variant,
                cfg.point_n,
                t1.tag,
                t2.tag,
                min_distance(code),
                reg_ok,
            )
        )
    text = _tabulate(
        rows, ("variant", "N", "s1_type", "s2_type", "min_dist", "dual_regulus"),
        args.format,
    )
    if args.format == "text":
        text += f"configs emitted: {len(rows)}\n"
    _emit(args, text)
    return 0


def cmd_verify_paper(args):
    from . import corpus

    failures = []
    lines = []
    for n in range(1, corpus.N_PAIRS + 1):
        s1, s2 = corpus.pair(n)
        exp = corpus.EXPECTED[n]
        t1, t2 = classify(s1), classify(s2)
        code = DoublingCode(s1, s2)
        checks = {
            "s1 type X": t1.tag == "X",
            "s2 type X": t2.tag == "X",
            "optimal": validate_doubling(s1, s2).optimal,
            "size 18": len(set(code.codewords)) == 18,
            "min distance 3": min_distance(code) == 3,
        }
        if checks["s1 type X"] and checks["s2 type X"]:
            pat = intersection_pattern(code.planes[t2.distinguished], s1)
            checks[f"ninth pattern {exp['ninth_pattern']}"] = (
                pat.counts == exp["ninth_pattern"]
            )
        if "reguli" in exp:
            got = tuple(tuple(i + 1 for i in t) for t in t1.reguli)
            checks["reguli indices"] = got == exp["reguli"]
        bad = [k for k, ok in checks.items() if not ok]
        status = "ok" if not bad else f"FAIL ({'; '.join(bad)})"
        lines.append(f"pair {n}: {status}")
        failures.extend((n, b) for b in bad)
    _emit(args, "\n".join(lines) + "\n")
    if failures:
        raise SpreadAnomaly(f"reference corpus mismatches: {failures}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    p = _Parser(prog="spreadcodes", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, formats=("text", "json", "csv"), limit=True):
        if formats:
            sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", help="write output to this file (atomic)")
        if limit:
            sp.add_argument("--limit", type=int, default=None)

    sp = sub.add_parser("enumerate", help="list subspaces of PG(4,2)")
    sp.add_argument("kind", choices=("points", "lines", "planes", "solids"))
    common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("classify", help="classify spreads from a file")
    sp.add_argument("file")
    common(sp, limit=False)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("doubling", help="validate doubling pairs")
    sp.add_argument("file1", nargs="?")
    sp.add_argument("file2", nargs="?")
    sp.add_argument("--search-db", help="spread file to search for optimal pairs")
    sp.add_argument("--filter", nargs=2, choices=("X", "E", "IDelta"),
                    metavar="TYPE",
                    help="spread types of S1 and S2 for --search-db "
                         "(X, E or IDelta; default X X)")
    common(sp, formats=("text", "json"))
    # None tells an explicit --format apart: --search-db always prints JSON
    sp.set_defaults(func=cmd_doubling, format=None)

    sp = sub.add_parser("census", help="intersection-pattern census")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--db",
                        help="spread file; all optimal ordered (X,X) pairs used")
    source.add_argument("--exhaustive", action="store_true",
                        help="census over every optimal (X,X) pair")
    common(sp, formats=())
    sp.set_defaults(func=cmd_census)

    sp = sub.add_parser("hkk", help="run the shortened-Gabidulin pipeline")
    sp.add_argument("--mode", choices=("first", "all"), default="first")
    common(sp)
    sp.set_defaults(func=cmd_hkk)

    sp = sub.add_parser("cps", help="run the order-6-group pipeline")
    sp.add_argument("--variant",
                    choices=("basic", "swap_reguli", "replace_plane"),
                    default="basic")
    common(sp)
    sp.set_defaults(func=cmd_cps)

    sp = sub.add_parser("verify-paper",
                        help="check the shipped reference corpus")
    common(sp, formats=(), limit=False)
    sp.set_defaults(func=cmd_verify_paper)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # what the manifest records: the arguments parsed here, not the host's
    args.argv = sys.argv[1:] if argv is None else list(argv)
    if getattr(args, "limit", None) is not None and args.limit < 0:
        parser.error(f"--limit must not be negative: {args.limit}")
    if args.out == "":
        parser.error("--out needs a file name")
    if args.cmd == "doubling":
        if not args.search_db and not (args.file1 and args.file2):
            parser.error("doubling needs FILE1 FILE2 or --search-db")
        if args.search_db and args.file1:
            parser.error("doubling takes FILE1 FILE2 or --search-db, not both")
        if args.search_db and args.format is not None:
            parser.error("doubling --search-db always prints JSON; drop --format")
        for opt in ("limit", "filter"):
            if not args.search_db and getattr(args, opt) is not None:
                parser.error(f"--{opt} applies to doubling --search-db only")
    if args.cmd == "census" and args.db and args.limit is not None:
        parser.error("--limit applies to census --exhaustive only")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except SpreadAnomaly as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())

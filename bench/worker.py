"""One round of a benchmark workload, in a fresh interpreter.

Usage: ``python3 bench/worker.py SPEC.json RESULT.json T_SPAWN``

``SPEC.json`` names the workload and its inputs (written by ``run.py``),
``T_SPAWN`` is the ``time.monotonic()`` reading just before the parent
started this process.  The round imports ``spreadcodes`` cold, times the
workload's operations, then (untimed) checks their outputs and, when
traced, times the layer probes.  Everything goes to ``RESULT.json``.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
# The benchmark's own modules (``checks``, ``geometry``) import numpy, so they
# are imported only after the timed part: set-up must import it cold.

CPS_VARIANTS = ("basic", "swap_reguli", "replace_plane")


def reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs right now."""
    t = time.perf_counter()
    x, d = 0, {}
    for _ in range(60_000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        d[x & 1023] = d.get(x & 1023, 0) + 1
    return time.perf_counter() - t


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans kept in memory: name, start, end, parent span and run id."""

    def __init__(self, run_id: str, on: bool):
        self.run_id, self.on = run_id, on
        self.spans, self.stack, self.counts = [], [], {}

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.on:
            yield
            return
        k = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(k)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[k] = {"name": name, "start": start, "end": time.perf_counter(),
                             "parent": parent, "run": self.run_id}

    def count(self, name: str, n: int) -> None:
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n


class Round:
    """The timed operations of one round and what they returned.

    Wall time counts the interpreter's start, set-up and every timed
    operation, up to ``mark_end``; the benchmark's own preparation between
    operations and its checks after them are left out.  ``work_ref`` sums
    each operation's time divided by the reference loop timed beside it.
    """

    def __init__(self, tracer: Tracer, started_s: float):
        self.tracer = tracer
        self.started_s = started_s  # from spawn to the worker's first line
        self.setup_s = 0.0
        self.ops = []  # {"name", "seconds", "ok", "error"}
        self.outputs = {}  # op name -> digest of its exit code and output
        self.problems = []
        self.metrics = {}  # workload-specific end-to-end figures
        self.layers = {}  # per-layer figures of the traced round
        self.wall_s = self.rss_mb = self.work_ref = None

    def elapsed(self) -> float:
        return self.started_s + self.setup_s + sum(o["seconds"] for o in self.ops)

    def mark_end(self) -> None:
        self.wall_s, self.rss_mb = self.elapsed(), rss_mb()
        self.work_ref = sum(o["seconds"] / o["ref_s"] for o in self.ops)

    def op(self, name: str, fn):
        """Time ``fn()`` as one operation; a raise marks it failed."""
        ref = reference_s()
        with self.tracer.span(name):
            t = time.perf_counter()
            try:
                out, err = fn(), None
            except Exception:  # the operation failed; record it and go on
                out, err = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t
        ref = (ref + reference_s()) / 2
        self.ops.append({"name": name, "seconds": seconds, "ref_s": ref,
                         "ok": err is None, "error": err})
        return out

    def seconds(self, name: str) -> float:
        return next(o["seconds"] for o in self.ops if o["name"] == name)

    def output(self, name: str, rc: int, text: str) -> None:
        self.outputs[name] = hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()
        if rc != 0:  # a failed operation, not a wrong output
            next(o for o in self.ops if o["name"] == name)["ok"] = False

    def fail(self, name: str, problem: str) -> None:
        self.problems.append(f"{name}: {problem}")
        for o in self.ops:
            if o["name"] == name:
                o["ok"] = False


def cli(args: list) -> tuple:
    """``spreadcodes.cli.main(args)`` in-process: (exit code, stdout)."""
    from spreadcodes.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


def masks_of(subspaces) -> list:
    return [s.mask & ~1 for s in subspaces]


def code_masks(code) -> tuple:
    return masks_of(code.s1.lines), masks_of(code.planes)


# ---------------------------------------------------------------------------
# workloads: timed part, then checks


def run_db(r: Round, spec: dict, collect: bool) -> None:
    from spreadcodes import corpus
    from spreadcodes.doubling import pattern_census
    from spreadcodes.spreadfile import load_spread_file

    path = spec["db_file"]
    verify = r.op("verify-paper", lambda: cli(["verify-paper"]))
    classify = r.op("classify", lambda: cli(["classify", path]))
    search = r.op("search-db", lambda: cli(["doubling", "--search-db", path]))
    for name, res in (("verify-paper", verify), ("classify", classify),
                      ("search-db", search)):
        if res is not None:
            r.output(name, *res)

    # untimed: the found pairs as Spread objects for the census
    spreads = load_spread_file(path)
    by_id = {s.id: s for s in spreads}
    reports = json.loads(search[1]) if search and search[0] == 0 else []
    pairs = [(by_id[x["s1"]], by_id[x["s2"]]) for x in reports]
    census = r.op("pattern_census", lambda: pattern_census(pairs))
    if census is not None:
        summary = {"pairs": census.pair_count, "planes": census.plane_count,
                   "violations": census.violations,
                   "eliminated": census.eliminated_pattern_count}
        r.output("pattern_census", 0, json.dumps(
            [summary, sorted(map(repr, census.histogram.items()))]))
    r.mark_end()
    import checks

    if classify and search:
        n_x = checks.classify_table_types(classify[1]).count("X")
        r.metrics["classify_spreads_per_s"] = len(spreads) / r.seconds("classify")
        r.metrics["search_pairs_per_s"] = n_x**2 / r.seconds("search-db")
    if not collect:
        return

    with open(spec["db_json"], encoding="ascii") as fh:
        db = json.load(fh)
    for name, probs in (
        ("verify-paper", checks.verify_paper(*verify) if verify else []),
        ("classify", _classify_problems(classify, spreads, db)),
        ("search-db", checks.search_output(
            search[0], reports, [s.id for s in spreads], db["spreads"],
            db["planted"],
            {n: e["ninth_pattern"] for n, e in corpus.EXPECTED.items()})
         if search else []),
        ("pattern_census", checks.census_summary(summary, len(reports))
         if census is not None else []),
    ):
        for p in probs:
            r.fail(name, p)


def _classify_problems(classify, spreads, db) -> list:
    import checks
    import geometry as g
    import numpy as np
    from spreadcodes.spreads import classify_all

    if classify is None:
        return []
    own = [g.spread_type(s) for s in db["spreads"]]
    probs = []
    if [masks_of(s.lines) for s in spreads] != db["spreads"]:
        probs.append("the program read other spreads than the file holds")
    bulk = classify_all(np.array([s.line_ids for s in spreads], dtype=np.int16))
    tags = [bulk.TAGS[t] for t in bulk.types]
    if tags != own:
        probs.append("classify_all on the file's line ids disagrees with geometry")
    return probs + checks.classify_output(classify[0], classify[1], own)


def run_constructions(r: Round, spec: dict, collect: bool) -> None:
    from spreadcodes import constructions as cons

    limit = str(spec["hkk_limit"])
    jobs = [("hkk", ["hkk", "--limit", limit, "--format", "json"])]
    jobs += [(f"cps-{v}", ["cps", "--variant", v, "--format", "json",
                           "--limit", str(spec["cps_limit"])])
             for v in CPS_VARIANTS]
    results = {name: r.op(name, lambda a=args: cli(a)) for name, args in jobs}
    for name, res in results.items():
        if res is not None:
            r.output(name, *res)
    r.mark_end()

    def rows(name):
        rc, text = results[name] or (1, "[]")
        return json.loads(text) if rc == 0 else []

    cps_names = [f"cps-{v}" for v in CPS_VARIANTS]
    r.metrics["hkk_codes_per_s"] = len(rows("hkk")) / r.seconds("hkk")
    r.metrics["cps_codes_per_s"] = (sum(len(rows(n)) for n in cps_names)
                                    / sum(r.seconds(n) for n in cps_names))
    if not collect:
        return
    import checks

    hkk = [code_masks(res.code) for res in cons.hkk_build(limit=spec["hkk_limit"])]
    for p in checks.hkk_rows(rows("hkk"), hkk):
        r.fail("hkk", p)
    for v in CPS_VARIANTS:
        built = [code_masks(code) for code, _ in
                 cons.cps_build(variant=v, limit=spec["cps_limit"])]
        for p in checks.cps_rows(v, rows(f"cps-{v}"), built):
            r.fail(f"cps-{v}", p)


def run_exhaustive(r: Round, spec: dict, collect: bool) -> None:
    from spreadcodes.doubling import exhaustive_xx_census
    from spreadcodes.spreads import all_spread_line_ids, classify_all

    k = spec["census_k"]
    arr = r.op("all_spread_line_ids", all_spread_line_ids)
    r.layers["spreads.all_spread_line_ids_rss_mb"] = rss_mb()
    bulk = r.op("classify_all", classify_all)
    r.op("census_context", lambda: exhaustive_xx_census(limit=0))
    r.metrics["census_ready_s"] = r.elapsed()
    census = r.op("census", lambda: exhaustive_xx_census(limit=k))
    r.mark_end()
    if arr is None or bulk is None or census is None:
        return
    enum_s, classify_s = r.seconds("all_spread_line_ids"), r.seconds("classify_all")
    r.metrics["spreads_per_s"] = len(arr) / (enum_s + classify_s)
    r.metrics["census_pairs_per_s"] = census.pair_count / r.seconds("census")
    r.layers.update({
        "spreads.all_spread_line_ids_s": enum_s,
        "spreads.classify_all_s": classify_s,
        "doubling.census_context_s": r.seconds("census_context"),
        "doubling.census_ms_per_s1": r.seconds("census") / k * 1e3,
    })
    r.tracer.count("spreads enumerated", len(arr))
    r.tracer.count("S1 censused", census.s1_count)
    r.tracer.count("pairs censused", census.pair_count)
    if collect:
        _exhaustive_checks(r, spec, arr, bulk, census, k)


def _exhaustive_checks(r, spec, arr, bulk, census, k) -> None:
    import random

    import checks
    import geometry as g
    import numpy as np

    from spreadcodes.doubling import exhaustive_xx_census, intersection_pattern
    from spreadcodes.gf2geom import dual
    from spreadcodes.pg42 import tables
    from spreadcodes.spreads import Spread, classify

    line_mask = tables().line_mask & ~np.uint32(1)
    for p in checks.enumeration(arr, line_mask):
        r.fail("all_spread_line_ids", p)

    rng = random.Random(spec["seed"])
    sample = sorted(rng.sample(range(len(arr)), 300))
    rows = [[int(line_mask[i]) for i in arr[j]] for j in sample]
    bulk_tags = [bulk.TAGS[bulk.types[j]] for j in sample]
    obj_tags = [classify(Spread.from_line_ids(arr[j])).tag for j in sample]
    for p in checks.sample_types(rows, bulk_tags, obj_tags) + checks.type_counts(
            bulk.type_counts()):
        r.fail("classify_all", p)

    # S1 #0 recomputed: partners by mask containment, patterns object-level
    mine = np.array([g.LINE_INDEX[int(m)] for m in line_mask])
    x_rows = arr[bulk.types == 0]
    table = g.perp_table()
    forbidden = table[mine[x_rows[0]]].any(axis=0)
    partner_rows = x_rows[~forbidden[mine[x_rows]].any(axis=1)]
    s1 = Spread.from_line_ids(x_rows[0])
    t1 = classify(s1)
    hist = {}
    for row in partner_rows:
        s2 = Spread.from_line_ids(row)
        common = g.common_line(masks_of(s2.lines))
        for line_, mask in zip(s2.lines, masks_of(s2.lines)):
            pat = intersection_pattern(dual(line_), s1, t1)
            key = (pat.counts, pat.meets_common, pat.hole_count, mask == common)
            hist[key] = hist.get(key, 0) + 1
    one = exhaustive_xx_census(limit=1)

    def summary(c):
        return {"pairs": c.pair_count, "planes": c.plane_count,
                "histogram": c.histogram, "violations": c.violations,
                "eliminated": c.eliminated_pattern_count}

    for p in checks.census_limits(summary(one), summary(census), k,
                                  {"pairs": len(partner_rows), "histogram": hist}):
        r.fail("census", p)


WORKLOADS = {"db": run_db, "constructions": run_constructions,
             "exhaustive": run_exhaustive}


# ---------------------------------------------------------------------------
# layer probes of the traced round


def probe_layers(r: Round, spec: dict) -> None:
    """Time each layer's public functions on the db file and built codes.

    The probes are the same in every workload, so every traced run reports
    every layer; the e2e part of the round has already been timed.
    """
    from spreadcodes import constructions as cons
    from spreadcodes.doubling import (DoublingCode, intersection_pattern,
                                      min_distance, pattern_census,
                                      validate_doubling)
    from spreadcodes.gf2geom import dual, subspace_distance
    from spreadcodes.spreadfile import load_spread_file
    from spreadcodes.spreads import classify

    tr, layers = r.tracer, r.layers

    def timed(name, fn, per=1, scale=1.0):
        with tr.span(name):
            t = time.perf_counter()
            out = fn()
            layers[name] = (time.perf_counter() - t) / max(per, 1) * scale
        return out

    timed("cli.verify_paper_s", lambda: cli(["verify-paper"]))
    spreads = timed("spreadfile.load_spread_file_s",
                    lambda: load_spread_file(spec["db_file"]))
    tags = timed("spreads.classify_us", lambda: [classify(s).tag for s in spreads],
                 len(spreads), 1e6)
    xs = [s for s, t in zip(spreads, tags) if t == "X"]
    timed("gf2geom.dual_us", lambda: [dual(l) for s in xs for l in s.lines],
          9 * len(xs), 1e6)
    found = timed("doubling.validate_doubling_us",
                  lambda: [(a, b) for a in xs for b in xs
                           if validate_doubling(a, b).optimal],
                  len(xs) ** 2, 1e6)
    tr.count("spreads classified", len(spreads))
    tr.count("pairs tested", len(xs) ** 2)
    tr.count("pairs found", len(found))
    timed("doubling.pattern_census_s", lambda: pattern_census(found))

    timed("constructions.cps_orbits_s", cons.cps_orbits)
    stats = {}
    hkk = timed("constructions.hkk_build_s",
                lambda: list(cons.hkk_build(limit=spec["hkk_limit"], stats=stats)))
    timed("constructions.hkk_pattern_check_ms",
          lambda: [cons.hkk_pattern_check(h) for h in hkk], len(hkk), 1e3)
    cps = timed("constructions.cps_build_s",
                lambda: [c for v in CPS_VARIANTS
                         for c, _ in cons.cps_build(variant=v, limit=spec["cps_limit"])])
    built = [h.code for h in hkk] + cps
    tr.count("codes emitted", len(built))
    tr.count("hkk configs discarded", stats.get("discarded", 0))

    codes = [DoublingCode(a, b) for a, b in found] + built
    timed("doubling.min_distance_ms", lambda: [min_distance(c) for c in codes],
          len(codes), 1e3)
    x_codes = [(c, classify(c.s1)) for c in codes]
    x_codes = [(c, t) for c, t in x_codes if t.tag == "X"]
    timed("doubling.intersection_pattern_us",
          lambda: [intersection_pattern(p, c.s1, t) for c, t in x_codes for p in c.planes],
          9 * len(x_codes), 1e6)
    words = [c.codewords for c in built]
    timed("gf2geom.subspace_distance_us",
          lambda: [subspace_distance(u, v) for w in words
                   for i, u in enumerate(w) for v in w[i + 1:]],
          153 * len(words), 1e6)


def main() -> None:
    spec_path, result_path, t_spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    with open(spec_path, encoding="ascii") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    tracer = Tracer(spec["run_id"], bool(spec["traced"]))
    r = Round(tracer, T_START - t_spawn)

    with tracer.span("setup"):
        t = time.perf_counter()
        import spreadcodes  # noqa: F401
        from spreadcodes import pg42

        with tracer.span("pg42.tables"):
            t_tables = time.perf_counter()
            pg42.tables()
            t_end = time.perf_counter()
    r.setup_s = t_end - t
    r.layers["pg42.tables_s"] = t_end - t_tables

    WORKLOADS[spec["workload"]](r, spec, bool(spec["collect"]))
    if tracer.on and spec["workload"] != "exhaustive":
        probe_layers(r, spec)

    result = {
        "setup_s": r.setup_s,
        "wall_s": r.wall_s,
        "peak_rss_mb": r.rss_mb,
        "work_ref": r.work_ref,
        "metrics": r.metrics,
        "ops": r.ops,
        "outputs": r.outputs,
        "problems": r.problems,
        "layers": r.layers,
        "counts": tracer.counts,
        "spans": tracer.spans,
    }
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

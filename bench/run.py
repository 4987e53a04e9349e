"""The spreadcodes benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 bench/run.py --workload db --seed 1 --seconds 45 --trace 0

Each round runs the workload once in a fresh interpreter (``worker.py``),
so the program's module caches start cold, and one process does all the
work.  Rounds repeat until ``--seconds`` have passed; the figures are
medians over rounds.  The first round's outputs are checked against the
benchmark's own computations, later rounds must reproduce them exactly.
With ``--trace 1`` untraced and traced rounds alternate, and the result
holds the per-layer figures of the traced ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

HKK_LIMIT = 32  # first-fit HKK codes per constructions round
CPS_LIMIT = 12  # CPS codes per variant and round (basic and swap_reguli have 8)
CENSUS_K = 1000  # type-X S1 censused by the exhaustive workload
OPS = {"db": 4, "constructions": 4, "exhaustive": 4}  # timed operations per round
RUN_LIMIT_S = 170  # a db or constructions run ends within this
EXHAUSTIVE_LIMIT_S = 1200
END_TO_END = ("setup_s", "work_ref", "peak_rss_mb")
UNITS = {"s": "s", "ms": "ms", "us": "us", "mb": "MB", "ref": "ref"}


def unit(name: str) -> str:
    return "1/s" if name.endswith("_per_s") else UNITS[name.rsplit("_", 1)[1]]


def run_round(spec: dict, spec_path: str, result_path: str, timeout: float) -> dict | None:
    """One worker process; its result, or None if it died or timed out."""
    with open(spec_path, "w", encoding="ascii") as fh:
        json.dump(spec, fh)
    if os.path.exists(result_path):
        os.unlink(result_path)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path,
         repr(t_spawn)],
        stdout=subprocess.DEVNULL,
    )
    try:
        proc.wait(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path, encoding="ascii") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "spreadcodes", "__init__.py")):
        print("bench: no program to measure: src/spreadcodes is missing", file=sys.stderr)
        return 2

    import inputs
    import numpy

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        db = inputs.make_db(args.seed, ROOT)
        db_file = os.path.join(work, "db.txt")
        inputs.write_db(db, db_file, args.seed)
        with open(os.path.join(work, "db.json"), "w", encoding="ascii") as fh:
            json.dump(db, fh)
        rounds = run_rounds(args, work, {
            "workload": args.workload, "root": ROOT, "seed": args.seed,
            "db_file": db_file, "db_json": os.path.join(work, "db.json"),
            "hkk_limit": HKK_LIMIT, "cps_limit": CPS_LIMIT, "census_k": CENSUS_K,
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = OPS[args.workload] * len(rounds)
    failed = sum(OPS[args.workload] if r is None else sum(not o["ok"] for o in r["ops"])
                 for _, r in rounds)
    problems = [p for _, r in rounds if r for p in r["problems"]]
    problems += [f"round {k}: the worker ended without a result"
                 for k, (_, r) in enumerate(rounds) if r is None]
    base = rounds[0][1]["outputs"] if rounds[0][1] else {}
    for k, (_, r) in enumerate(rounds[1:], 1):
        if r and r["outputs"] != base:
            problems.append(f"round {k}: outputs differ from round 0")

    done = [(traced, r) for traced, r in rounds if r and r["wall_s"] is not None]
    plain = [r for traced, r in done if not traced]
    traced = [r for t, r in done if t]
    if not (traced if args.trace else plain):
        print(f"bench: no round completed: {problems[:3]}", file=sys.stderr)
        return 1
    metrics = {}
    if args.trace:
        for name in sorted({k for r in traced for k in r["layers"]}):
            metrics[name] = statistics.median(r["layers"][name] for r in traced
                                              if name in r["layers"])
        if plain and traced:
            metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                           - statistics.median(r["wall_s"] for r in plain))
    else:
        for name in END_TO_END:
            metrics[name] = statistics.median(r[name] for r in plain)
    # raw wall time and the figures of this workload alone: in the record only
    figures = {"wall_s": statistics.median(r["wall_s"] for r in plain)} if plain else {}
    figures.update({name: statistics.median(r["metrics"][name] for r in plain
                                            if name in r["metrics"])
                    for name in sorted({k for r in plain for k in r["metrics"]})})

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "attempted": attempted,
        "failed": failed, "problems": problems[:20], "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "metrics": metrics, "figures": figures,
        "per_round": [{"traced": t, "setup_s": r["setup_s"], "wall_s": r["wall_s"],
                       "work_ref": r["work_ref"],
                       "ops": {o["name"]: o["seconds"] for o in r["ops"]},
                       "errors": [o["error"] for o in r["ops"] if o["error"]]}
                      for t, r in done],
        "counts": traced[0]["counts"] if traced else {},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"record-{tag}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w", encoding="ascii") as fh:
            json.dump([s for r in traced for s in r["spans"]], fh)
    print("record: " + json.dumps({k: v for k, v in record.items() if k != "per_round"}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def run_rounds(args, work: str, spec: dict) -> list:
    """``(traced, result)`` per round, until ``--seconds`` have passed.

    Whole rounds only; with tracing, whole (untraced, traced) pairs.  The
    exhaustive workload runs once: one round takes minutes.
    """
    start = time.monotonic()
    deadline = start + args.seconds
    limit = EXHAUSTIVE_LIMIT_S if args.workload == "exhaustive" else RUN_LIMIT_S
    rounds = []
    while True:
        k = len(rounds)
        traced = bool(args.trace) and (k % 2 == 1 or args.workload == "exhaustive")
        spec = {**spec, "run_id": f"{args.workload}-{args.seed}-{k}",
                "traced": traced, "collect": k == 0}
        rounds.append((traced, run_round(spec, os.path.join(work, "spec.json"),
                                         os.path.join(work, f"round{k}.json"),
                                         start + limit - time.monotonic())))
        if args.workload == "exhaustive":
            return rounds
        if time.monotonic() >= deadline and (not args.trace or len(rounds) % 2 == 0):
            return rounds


if __name__ == "__main__":
    sys.exit(main())

import errno
import hashlib
import json
import os
import stat
import subprocess
import sys
import textwrap

import pytest

import spreadcodes
from spreadcodes import cli, constructions, corpus, gf2geom
from spreadcodes.constructions import cps_build, hkk_build
from spreadcodes.doubling import PatternCensus, validate_doubling
from spreadcodes.spreads import _classify, classify

from conftest import format_spreads


@pytest.fixture()
def classify_calls(monkeypatch):
    """The line ids ``spreads._classify`` is called on, the work of
    ``classify``: each ``Spread`` holds its own ``line_ids`` tuple."""
    calls = []
    monkeypatch.setattr(
        "spreadcodes.spreads._classify",
        lambda ids: calls.append(ids) or _classify(ids),
    )
    return calls


@pytest.fixture()
def pair_file(tmp_path):
    s1, s2 = corpus.pair(1)
    p1 = tmp_path / "s1.txt"
    p2 = tmp_path / "s2.txt"
    p1.write_text(format_spreads([s1]))
    p2.write_text(format_spreads([s2]))
    return p1, p2


@pytest.fixture()
def db_file(tmp_path):
    spreads = [s for n in (1, 2) for s in corpus.pair(n)]
    p = tmp_path / "db.txt"
    p.write_text(format_spreads(spreads))
    return p


@pytest.fixture()
def mixed_db(tmp_path):
    """Corpus pair 1 beside an optimal (X,E) CPS pair.

    Returns the file and the type pairs of its optimal ordered pairs.
    """
    code, _ = next(cps_build(variant="basic", limit=1))
    spreads = list(corpus.pair(1)) + [code.s1, code.s2]
    tags = [classify(s).tag for s in spreads]
    optimal = [
        (tags[i], tags[j])
        for i, a in enumerate(spreads)
        for j, b in enumerate(spreads)
        if validate_doubling(a, b).optimal
    ]
    db = tmp_path / "mixed.txt"
    db.write_text(format_spreads(spreads))
    return db, optimal


class TestExitCodes:
    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as ei:
            cli.main(["doubling"])
        assert ei.value.code == 1

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as ei:
            cli.main(["frobnicate"])
        assert ei.value.code == 1

    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("{1,25,125},{2,34}")
        assert cli.main(["classify", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["classify"], ["doubling", "--search-db"], ["census", "--db"]]
    )
    def test_non_ascii_file_is_parse_error_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"{1,2,12}\xc3\xa9\n")
        assert cli.main(argv + [str(bad)]) == 2
        assert "parse error: line 1: non-ASCII byte 0xc3" in capsys.readouterr().err

    def test_invariant_violation_is_3(self, monkeypatch, capsys):
        """A corpus pair that is not as expected, a corpus file that does not
        hold 2 spreads, and a subspace count that is not the Gaussian
        binomial each end in exit 3 with one line on stderr."""
        wrong = dict(corpus.EXPECTED)
        wrong[1] = dict(wrong[1], ninth_pattern=(3, 3, 3, 1))
        monkeypatch.setattr(corpus, "EXPECTED", wrong)
        assert cli.main(["verify-paper"]) == 3
        assert "invariant violation" in capsys.readouterr().err
        monkeypatch.undo()

        parse = corpus.parse_spread_text
        monkeypatch.setattr(corpus, "parse_spread_text", lambda text: parse(text) * 2)
        assert cli.main(["verify-paper"]) == 3
        assert capsys.readouterr().err == (
            "invariant violation: corpus pair 1 must hold exactly 2 spreads\n"
        )
        monkeypatch.undo()

        count = gf2geom.gaussian_binomial
        monkeypatch.setattr(gf2geom, "gaussian_binomial", lambda n, k: count(n, k) + 1)
        gf2geom.enumerate_subspaces.cache_clear()
        try:
            assert cli.main(["enumerate", "solids"]) == 3
        finally:
            monkeypatch.undo()
            gf2geom.enumerate_subspaces.cache_clear()
        assert capsys.readouterr().err == (
            "invariant violation: 31 4-subspaces of GF(2)^5, not 32\n"
        )

    def test_census_violation_is_3(self, monkeypatch, db_file, capsys):
        """A census with a plane of the eliminated pattern prints its table,
        then fails as an invariant violation that names the pattern."""
        key = ((3, 2, 2, 1), True, 0, False)
        monkeypatch.setattr(
            cli, "pattern_census", lambda pairs: PatternCensus({key: 1}, 1)
        )
        assert cli.main(["census", "--db", str(db_file)]) == 3
        captured = capsys.readouterr()
        assert "violations: 1\n" in captured.out
        assert captured.err == (
            "invariant violation: census violations: "
            "[('pattern outside allowed set', (3, 2, 2, 1), 1)]\n"
        )

    @pytest.mark.parametrize(
        "name, fake, argv, text",
        [
            (
                "_cps_matrix",
                lambda b, c, d: (1, 2, 4, 8, 16),
                ["cps", "--limit", "1"],
                "CPS group must have 6 elements",
            ),
            (
                "_gab_matrix",
                lambda a0, a1: (0, 0, 0),
                ["hkk", "--limit", "1"],
                "rank distance below 2 in Gabidulin code",
            ),
            (
                "hkk_build",
                lambda **kw: (
                    constructions.HKKResult(code, None, None)
                    for code, _ in cps_build(variant="basic")
                    if classify(code.s1).tag == "E"
                ),
                ["hkk"],
                "HKK code of spread types E/X, not X/X",
            ),
        ],
        ids=["cps-group", "gabidulin", "hkk-non-x"],
    )
    def test_failed_construction_certificate_is_3(
        self, monkeypatch, capsys, name, fake, argv, text
    ):
        """A construction whose own check fails (every CPS matrix the
        identity, every Gabidulin matrix zero, an HKK code whose first spread
        is not of type X: the ``basic`` CPS codes with an E first spread)
        ends in exit 3 with one line on stderr, not in a traceback."""
        caches = (constructions.build_lifted_gabidulin, constructions.cps_orbits)
        monkeypatch.setattr(constructions, name, fake)
        for cached in caches:
            cached.cache_clear()
        try:
            assert cli.main(argv) == 3
        finally:
            for cached in caches:
                cached.cache_clear()  # drop what the fake built
        assert capsys.readouterr().err == f"invariant violation: {text}\n"

    def test_missing_file_is_1(self, capsys):
        assert cli.main(["classify", "/nonexistent/file.txt"]) == 1

    def test_out_into_a_missing_directory_names_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.txt"
        assert cli.main(["verify-paper", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"

    def test_out_onto_a_directory_names_the_path(self, tmp_path, capsys):
        assert cli.main(["verify-paper", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.endswith(f"{str(tmp_path)!r}\n")
        assert ".tmp-" not in err
        assert list(tmp_path.iterdir()) == []  # the temporary file is gone

    @pytest.mark.parametrize("suffix", ["", ".summary.json", ".manifest.json"])
    def test_out_onto_a_fifo_writes_nothing(self, tmp_path, db_file, capsys, suffix):
        """A path ``census --out`` would write that is a FIFO, be it the
        output, its summary or its manifest, is refused before anything is
        written: it stays a FIFO and no file appears beside it."""
        out = tmp_path / "out" / "census.csv"
        out.parent.mkdir()
        fifo = str(out) + suffix
        os.mkfifo(fifo)
        assert cli.main(["census", "--db", str(db_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: [Errno {errno.EEXIST}] exists and is not a regular file: {fifo!r}\n"
        )
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert os.listdir(out.parent) == [os.path.basename(fifo)]


class TestOptions:
    def test_verify_paper_out_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert cli.main(["verify-paper", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert lines == [f"pair {n}: ok" for n in range(1, 6)]
        manifest = json.loads((tmp_path / "report.txt.manifest.json").read_text())
        assert manifest["command"] == "verify-paper"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-paper", "--format", "json"],
            ["verify-paper", "--limit", "1"],
            ["classify", "S1", "--limit", "1"],
            ["census", "--db", "S1", "--format", "json"],
            ["doubling", "S1", "S2", "--format", "csv"],
            ["doubling", "--search-db", "S1", "--format", "csv"],
            ["doubling", "S1", "S2", "--limit", "1"],
            ["doubling", "--search-db", "S1", "--format", "text"],
            ["doubling", "S1", "S2", "--filter", "E", "E"],
            ["doubling", "S1", "S2", "--search-db", "S1"],
            ["doubling", "S1", "--search-db", "S1"],
            ["census", "--db", "S1", "--limit", "1"],
        ],
    )
    def test_option_the_command_does_not_use_is_usage_error(
        self, pair_file, argv, capsys
    ):
        files = dict(zip(("S1", "S2"), map(str, pair_file)))
        with pytest.raises(SystemExit) as ei:
            cli.main([files.get(a, a) for a in argv])
        assert ei.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "lines"],
            ["verify-paper"],
            ["classify", "S1"],
            ["census", "--db", "S1"],
        ],
    )
    def test_empty_out_is_usage_error(self, pair_file, tmp_path, argv, capsys):
        """An empty ``--out`` names no file: it is refused, not taken as
        stdout, and nothing is written."""
        files = dict(zip(("S1", "S2"), map(str, pair_file)))
        with pytest.raises(SystemExit) as ei:
            cli.main([files.get(a, a) for a in argv] + ["--out", ""])
        assert ei.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.txt", "s2.txt"]


class TestNoSpreadBlock:
    @pytest.mark.parametrize("text", ["", "# comments only\n\n# and blanks\n"])
    @pytest.mark.parametrize(
        "argv",
        [["classify", "E"], ["doubling", "--search-db", "E"], ["doubling", "E", "E"]],
    )
    def test_is_parse_error_2(self, tmp_path, capsys, text, argv):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        assert cli.main([str(empty) if a == "E" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error: line 1: no spread block" in captured.err


class TestEnumerate:
    def test_counts(self, capsys):
        assert cli.main(["enumerate", "points"]) == 0
        assert "total: 31" in capsys.readouterr().out
        assert cli.main(["enumerate", "lines"]) == 0
        assert "total: 155" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert cli.main(["enumerate", "solids", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 31
        assert set(rows[0]) == {"id", "generators", "basis_bits"}

    def test_limit(self, capsys):
        assert cli.main(["enumerate", "lines", "--limit", "3"]) == 0
        out = capsys.readouterr().out
        assert "total: 155" in out
        assert len(out.strip().splitlines()) == 5  # header + 3 rows + total

    def test_negative_limit_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["enumerate", "lines", "--limit", "-3"])
        assert ei.value.code == 1
        assert capsys.readouterr().out == ""


class TestAtomicOutput:
    def test_out_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "lines.csv"
        rc = cli.main(
            ["enumerate", "lines", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        data = out.read_bytes()
        assert data.startswith(b"id,generators,basis_bits")
        mpath = tmp_path / "lines.csv.manifest.json"
        manifest = json.loads(mpath.read_text())
        assert manifest["command"] == "enumerate"
        assert manifest["outputs"][str(out)] == hashlib.sha256(data).hexdigest()
        assert manifest["version"]
        assert manifest["timestamp"]
        # nothing goes to stdout when writing to a file
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o027, 0o640)], ids=["022", "027"]
    )
    def test_out_files_follow_the_umask(self, db_file, tmp_path, capsys, umask, mode):
        """The output, summary and manifest get the mode a plain ``open(path,
        "w")`` gives a new file, not the 0600 of a temporary file."""
        out = tmp_path / "census.csv"
        old = os.umask(umask)
        try:
            assert cli.main(["census", "--db", str(db_file), "--out", str(out)]) == 0
        finally:
            os.umask(old)
        for suffix in ("", ".summary.json", ".manifest.json"):
            assert os.stat(f"{out}{suffix}").st_mode & 0o777 == mode

    @staticmethod
    def _write_points(out, capsys) -> str:
        """Run ``enumerate points --limit 1 --out OUT`` under umask 022 and
        return the text it writes, as the same command prints it."""
        argv = ["enumerate", "points", "--limit", "1"]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        old = os.umask(0o022)
        try:
            assert cli.main(argv + ["--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert capsys.readouterr() == ("", "")
        return text

    def test_out_through_a_link_writes_its_target(self, tmp_path, capsys):
        """``--out`` onto a symbolic link, for the output and its manifest,
        writes what the link points to, as ``open(path, "w")`` would: the
        links stay, and their 0640 targets keep their mode."""
        out = tmp_path / "out.txt"
        (tmp_path / "data").mkdir()
        links = {}
        for link in (out, tmp_path / "out.txt.manifest.json"):
            target = tmp_path / "data" / link.name
            target.write_text("old\n")
            target.chmod(0o640)
            link.symlink_to(os.path.join("data", link.name))
            links[link] = target
        text = self._write_points(out, capsys)
        for link, target in links.items():
            assert link.is_symlink()
            assert os.readlink(link) == os.path.join("data", link.name)
            assert target.stat().st_mode & 0o777 == 0o640
        assert links[out].read_text() == text
        manifest = json.loads(links[tmp_path / "out.txt.manifest.json"].read_text())
        assert manifest["outputs"] == {
            str(out): hashlib.sha256(text.encode()).hexdigest()
        }
        # no temporary file is left beside a link or its target
        names = ["out.txt", "out.txt.manifest.json"]
        assert sorted(os.path.relpath(p, tmp_path) for p in tmp_path.rglob("*")) == (
            ["data"] + [os.path.join("data", n) for n in names] + names
        )

    def test_out_onto_an_existing_file_keeps_its_mode(self, tmp_path, capsys):
        """An existing output and manifest keep their 0640 mode under a
        umask of 022, as ``open(path, "w")`` leaves them."""
        out = tmp_path / "out.txt"
        paths = (out, tmp_path / "out.txt.manifest.json")
        for path in paths:
            path.write_text("old\n")
            path.chmod(0o640)
        text = self._write_points(out, capsys)
        assert out.read_text() == text
        assert json.loads(paths[1].read_text())["command"] == "enumerate"
        for path in paths:
            assert path.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize(
        "argv",
        [["verify-paper", "--out", "OUT"], ["census", "--db", "DB", "--out", "OUT"]],
    )
    def test_manifest_records_the_arguments_given_to_main(
        self, db_file, tmp_path, capsys, argv
    ):
        out = tmp_path / "out.txt"
        argv = [{"OUT": str(out), "DB": str(db_file)}.get(a, a) for a in argv]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["arguments"] == argv


class TestClassify:
    def test_text(self, pair_file, capsys):
        p1, _ = pair_file
        assert cli.main(["classify", str(p1)]) == 0
        out = capsys.readouterr().out
        assert "X" in out
        assert "common line {4,135,2u}" in out
        assert "R139 R249 R579 R689" in out

    def test_json(self, pair_file, capsys):
        p1, _ = pair_file
        assert cli.main(["classify", str(p1), "--format", "json"]) == 0
        rec = json.loads(capsys.readouterr().out)[0]
        assert rec["type"] == "X"
        assert rec["reguli"] == [[1, 3, 9], [2, 4, 9], [5, 7, 9], [6, 8, 9]]
        assert len(rec["holes"]) == 4


class TestDoubling:
    def test_pair_files(self, pair_file, capsys):
        p1, p2 = pair_file
        assert cli.main(["doubling", str(p1), str(p2)]) == 0
        out = capsys.readouterr().out
        assert "optimal, min distance 3, types X/X" in out
        assert "(2, 2, 2, 0)" in out

    def test_invalid_pair_reports_witness(self, pair_file, capsys):
        p1, _ = pair_file
        assert cli.main(["doubling", str(p1), str(p1)]) == 0
        out = capsys.readouterr().out
        assert "invalid" in out and "inside dual plane" in out

    def test_search_db(self, db_file, capsys):
        rc = cli.main(["doubling", "--search-db", str(db_file), "--limit", "2"])
        assert rc == 0
        recs = json.loads(capsys.readouterr().out)
        assert len(recs) == 2
        assert all(r["optimal"] for r in recs)

    def test_search_db_negative_limit_is_usage_error(self, db_file, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["doubling", "--search-db", str(db_file), "--limit", "-3"])
        assert ei.value.code == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("tags", [["ZZ"], ["XX"], ["X"], ["X", "Z"]])
    def test_filter_rejects_other_than_two_type_tags(self, db_file, tags, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["doubling", "--search-db", str(db_file), "--filter", *tags])
        assert ei.value.code == 1
        assert capsys.readouterr().out == ""

    def test_filter_selects_the_type_pair(self, mixed_db, capsys):
        db, optimal = mixed_db
        assert optimal.count(("X", "E")) >= 1
        for pair in (("X", "E"), ("X", "X"), ("IDelta", "IDelta")):
            assert cli.main(["doubling", "--search-db", str(db), "--filter", *pair]) == 0
            recs = json.loads(capsys.readouterr().out)
            assert len(recs) == optimal.count(pair)
            assert all(r["optimal"] and r["types"] == list(pair) for r in recs)

    def test_unequal_pair_files_are_usage_error(self, pair_file, db_file, capsys):
        p1, _ = pair_file
        assert cli.main(["doubling", str(p1), str(db_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "holds 1 spreads" in captured.err and "holds 4" in captured.err


class TestCensus:
    def test_db_census(self, db_file, tmp_path, capsys):
        out = tmp_path / "census.csv"
        rc = cli.main(["census", "--db", str(db_file), "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "violations: 0" in text
        summary = json.loads((tmp_path / "census.csv.summary.json").read_text())
        assert summary["violations"] == []
        assert summary["planes"] == 9 * summary["pairs"]
        assert out.read_text().startswith("pattern,")

    def test_needs_db_or_exhaustive(self):
        with pytest.raises(SystemExit) as ei:
            cli.main(["census"])
        assert ei.value.code == 1

    def test_db_census_classifies_each_spread_once(
        self, mixed_db, capsys, classify_calls
    ):
        db, optimal = mixed_db
        assert cli.main(["census", "--db", str(db)]) == 0
        assert f"pairs: {optimal.count(('X', 'X'))}\n" in capsys.readouterr().out
        assert len(classify_calls) == len(set(map(id, classify_calls))) == 4

    def test_db_census_counts_only_xx_pairs(self, mixed_db, capsys):
        db, optimal = mixed_db
        assert any(t != ("X", "X") for t in optimal)
        assert cli.main(["census", "--db", str(db)]) == 0
        text = capsys.readouterr().out
        assert f"pairs: {optimal.count(('X', 'X'))}\n" in text


class TestConstructionCommands:
    def test_hkk(self, capsys):
        assert cli.main(["hkk", "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "(3, 3, 1, 1)" in out
        assert "True" in out

    def test_cps(self, capsys):
        assert cli.main(["cps", "--variant", "basic", "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "basic" in out and "configs emitted: 2" in out


class TestLimitZero:
    """``--limit 0`` lists no item, as ``enumerate lines --limit 0`` does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hkk", "--limit", "0", "--format", "json"],
            ["cps", "--limit", "0", "--format", "json"],
            ["doubling", "--search-db", "DB", "--limit", "0"],
        ],
    )
    def test_command_prints_no_item(self, db_file, capsys, argv):
        assert cli.main([str(db_file) if a == "DB" else a for a in argv]) == 0
        assert json.loads(capsys.readouterr().out) == []

    @pytest.mark.parametrize("build", [hkk_build, cps_build])
    def test_generator_yields_nothing(self, build):
        assert list(build(limit=0)) == []


class TestLimitAboveMaxsize:
    """A ``--limit`` above ``sys.maxsize`` lists every item, as no limit does."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "lines"],
            ["hkk"],
            ["cps"],
            ["census", "--exhaustive"],
            ["doubling", "--search-db", "DB"],
        ],
        ids=["enumerate", "hkk", "cps", "census", "search-db"],
    )
    def test_command_prints_every_item(self, db_file, capsys, argv):
        argv = [str(db_file) if a == "DB" else a for a in argv]
        assert cli.main(argv) == 0
        unlimited = capsys.readouterr().out
        limit = 99999999999999999999
        assert limit > sys.maxsize
        assert cli.main(argv + ["--limit", str(limit)]) == 0
        assert capsys.readouterr().out == unlimited


class TestVerifyPaper:
    def test_all_pairs_ok(self, capsys):
        assert cli.main(["verify-paper"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert all(l.endswith("ok") for l in out)


class TestReentrantMain:
    def test_calls_in_one_process_match_fresh_interpreters(
        self, tmp_path, capsys, monkeypatch
    ):
        """``main`` reuses one parser.  A sequence of calls in this process,
        with a usage error, ``--version``'s exit and a parse error among
        them, gives each call the exit code, stdout and stderr it gives on
        its own in a fresh interpreter."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"{1,2,12}\xc3\xa9\n")
        calls = [
            ["hkk", "--mode", "bogus"],
            ["--version"],
            ["hkk", "--limit", "1"],
            ["cps", "--variant", "swap_reguli", "--limit", "1", "--format", "json"],
            ["classify", str(bad)],
            ["hkk", "--limit", "1"],
        ]
        # usage lines wrap at the terminal width: the same in both
        monkeypatch.setenv("COLUMNS", "80")
        src = os.path.dirname(os.path.dirname(spreadcodes.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        codes = []
        for argv in calls:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "spreadcodes.cli", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(rc)
        assert codes == [1, 0, 0, 0, 2, 0]
        assert cli.build_parser() is cli.build_parser()


class TestImports:
    # run in a fresh interpreter: this one has numpy and every module loaded
    SCRIPT = textwrap.dedent(
        """
        import contextlib, io, json, sys
        import spreadcodes
        from spreadcodes import cli

        watched = ("numpy", "spreadcodes.constructions", "dataclasses", "inspect")
        out = [["import", None, [m for m in watched if m in sys.modules]]]
        db = sys.argv[1]
        for argv in (["verify-paper"], ["classify", db],
                     ["doubling", "--search-db", db], ["census", "--db", db],
                     ["enumerate", "lines"], ["hkk", "--limit", "1"],
                     ["cps", "--limit", "1"]):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            out.append([argv[0], rc, [m for m in watched if m in sys.modules]])
        print(json.dumps(out))
        """
    )

    @staticmethod
    def _fresh(script, *args) -> str:
        """The stdout of ``script`` run in a fresh interpreter."""
        src = os.path.dirname(os.path.dirname(spreadcodes.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return proc.stdout

    @staticmethod
    def _loaded(db_file, modules) -> list:
        """[step, exit code, which of ``modules`` are loaded] after ``import
        spreadcodes`` and after each command, in one fresh interpreter."""
        return [
            [step, rc, [m for m in loaded if m in modules]]
            for step, rc, loaded in json.loads(
                TestImports._fresh(TestImports.SCRIPT, str(db_file))
            )
        ]

    def test_object_level_commands_load_no_numpy(self, db_file):
        """The object-level commands never import numpy, and only ``hkk``
        and ``cps`` import ``constructions``."""
        assert self._loaded(db_file, ("numpy", "spreadcodes.constructions")) == [
            ["import", None, []],
            ["verify-paper", 0, []],
            ["classify", 0, []],
            ["doubling", 0, []],
            ["census", 0, []],
            ["enumerate", 0, []],
            ["hkk", 0, ["spreadcodes.constructions"]],
            ["cps", 0, ["spreadcodes.constructions"]],
        ]

    def test_exhaustive_census_loads_no_numpy(self):
        """``census --exhaustive`` types every spread on its line ids
        (``spreads._classify``), so it loads neither numpy nor
        ``dataclasses`` nor ``inspect``."""
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            from spreadcodes import cli

            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["census", "--exhaustive", "--limit", "1"])
            watched = ("numpy", "dataclasses", "inspect")
            print(rc, [m for m in watched if m in sys.modules])
            """
        )
        assert self._fresh(script) == "0 []\n"

    def test_cold_start_loads_no_dataclasses(self, db_file):
        """Neither the package nor any command imports ``dataclasses`` or
        ``inspect``, which it pulls in with ``ast`` and ``dis``: 6-9 ms of
        every process's start (2 cores, Python 3.11.7)."""
        steps = ["import", "verify-paper", "classify", "doubling", "census",
                 "enumerate", "hkk", "cps"]
        assert self._loaded(db_file, ("dataclasses", "inspect")) == [
            [step, None if step == "import" else 0, []] for step in steps
        ]


class TestOutputPins:
    """SHA-256 of the exit code and stdout of fixed commands, so that any
    change to their output is a test failure."""

    @staticmethod
    def _sha(capsys, argv) -> str:
        rc = cli.main(argv)
        return hashlib.sha256(f"{rc}\n{capsys.readouterr().out}".encode()).hexdigest()

    @pytest.mark.parametrize(
        "argv, sha",
        [
            (["verify-paper"],
             "d5bca078674d1709ee5f2a429a4383cc4b534ea616e0a1f9076da8afc9b39e42"),
            (["cps", "--variant", "basic", "--format", "json"],
             "b16ec647edb7af8d2930ee3a76da74b126d87b0266233e29dcb605f49a6b1ee8"),
            (["cps", "--variant", "swap_reguli", "--format", "json"],
             "f19274b4f05c7c24fa18212f85a17321842719ed7e6f3852bedc3fc76901ce4d"),
            (["cps", "--variant", "replace_plane", "--format", "json"],
             "c2adb0f50f16ce27fde08b5d9085d726138c4442e106c62559652a6bbc101e84"),
            (["hkk", "--limit", "32", "--format", "json"],
             "c1b22aa65307cb942041265ac8191742b35481b12a31ed0b624c54f3fe9cd2df"),
            (["enumerate", "lines", "--format", "csv"],
             "152d237b532d8cad46bec3ea586ae9fff1db666abf777ac3f72d571d65be566f"),
            (["hkk", "--limit", "3"],
             "33ff6c971cd3ecab3955ee4d7485906e1a003a88e0bd9df03e39d0012ed5510e"),
            (["cps", "--variant", "replace_plane"],
             "b7fda31b5d5852b9ff3c52c59a478a090082838634ec3e23b7b70aaff9c8bee8"),
        ],
    )
    def test_command(self, capsys, argv, sha):
        assert self._sha(capsys, argv) == sha

    @pytest.mark.parametrize(
        "n, text_sha, json_sha",
        [
            (1, "bda98c62710b7cc12f87ac425e593c02838f7255b432624210bbc96ab78be04c",
             "4b3cff27cf281e882f658373386f5c382f938ae78e2803f30a24b286ffc81676"),
            (2, "005283d174d4d6c2003cefb7efeeb532d03156c049808fb2415f7adecda6ee4c",
             "4cfe4fac8a68a3043730a2f124308c9dd4aef996484aa0e6c2d5bc2e6382826d"),
            (3, "e9e88b34b6f5c4eee813a608c1ec6ab5534ade553def6ec9a62659968b39d54c",
             "bdc2ebfb0476137edff7d58aaa638c0ca305462729ec4b420bd225e13f63d8cd"),
            (4, "7d30f83bdfd50376550ed24e9d1f3a388c102f279657f7fb4bd9538094af260f",
             "f24801d66fc430c9fb365230677e2f0bb94aa093a865ebcffed5c42e5b624776"),
            (5, "997f47dc79c8b5e27436469511af9253f04f21c0cd5b18fe400262cc1edd9f4e",
             "3b64908968acdd2cb679e6a9297bbb1d505f4951e664395fbe1dd01b44830237"),
        ],
    )
    def test_doubling_corpus_pair(self, tmp_path, capsys, n, text_sha, json_sha):
        """``doubling`` on corpus pair n, its two spreads in two files."""
        files = []
        for k, s in enumerate(corpus.pair(n)):
            files.append(tmp_path / f"s{k + 1}.txt")
            files[-1].write_text(format_spreads([s]))
        argv = ["doubling", str(files[0]), str(files[1])]
        assert self._sha(capsys, argv) == text_sha
        assert self._sha(capsys, argv + ["--format", "json"]) == json_sha

    @pytest.mark.parametrize(
        "types, sha",
        [
            (("X", "X"),
             "65b2eddb9bd18176e4ad17b9e8e31c2a54ba79038eee63fcbbb9c840c916535c"),
            (("X", "E"),
             "49c60db735426be15e69253de9ba85af40eb2ae8f0658fbd37f7ea7f5cb4cf2f"),
            (("E", "X"),
             "d137f4296d6054a7aac55ad9ba846a3e5e7555084e11b45514ccf106002fe415"),
        ],
    )
    def test_search_db(self, tmp_path, capsys, classify_calls, types, sha):
        """``doubling --search-db`` on the ten corpus spreads and the first
        ``basic`` CPS pair (types X and E), each spread classified once."""
        code, _ = next(cps_build(variant="basic", limit=1))
        spreads = [s for n in range(1, 6) for s in corpus.pair(n)]
        spreads += [code.s1, code.s2]
        db = tmp_path / "db.txt"
        db.write_text(format_spreads(spreads))
        argv = ["doubling", "--search-db", str(db), "--filter", *types]
        assert self._sha(capsys, argv) == sha
        assert len(classify_calls) == len(spreads)

    @pytest.fixture()
    def typed_db_file(self, tmp_path, sample_spreads):
        """A spread file of all three types: the spreads of ``mixed_db``
        (types X and E) and four seeded samples, two of them of type
        IDelta."""
        code, _ = next(cps_build(variant="basic", limit=1))
        spreads = list(corpus.pair(1)) + [code.s1, code.s2]
        spreads += sample_spreads(4, 1)
        assert {classify(s).tag for s in spreads} == {"X", "E", "IDelta"}
        db = tmp_path / "db.txt"
        db.write_text(format_spreads(spreads))
        return db

    @pytest.mark.parametrize(
        "argv, sha",
        [
            (["classify"],
             "1000e4afec1a15e24eb866eeea6c3fe72fa55a30c001763a46f3153c494a18e6"),
            (["classify", "--format", "json"],
             "75c42b640ee3653dccce89d9eeb499e5d9a58de5f56b76492e6ba778d0ec5724"),
            (["classify", "--format", "csv"],
             "9fc2e46bd6c299b72c525ea8973a799b151d0971808613c74afbf31784d290f0"),
            (["census", "--db"],
             "85bbd92bbb3f0eef81980ef5c9af407c46138bf35f73621e517ebc71f6ff3195"),
        ],
    )
    def test_typed_db(self, capsys, typed_db_file, argv, sha):
        """``classify`` and ``census --db`` on ``typed_db_file``."""
        assert self._sha(capsys, argv + [str(typed_db_file)]) == sha

    @pytest.mark.parametrize(
        "argv, shas",
        [
            (["census", "--db", "DB"],
             ("85bbd92bbb3f0eef81980ef5c9af407c46138bf35f73621e517ebc71f6ff3195",
              "5ca7a5e6fd92084cb1eefe2f0238275c4455dfe25a9df956bda77d5df480d9e6",
              "2659c5e8c1b3b5407e900318ec6b34ade1609fae6993290c1eda6065930078d8")),
            (["census", "--exhaustive", "--limit", "3"],
             ("a5c1fac365ece278d5643f794faa76f7029762d25c1f1818f4dee7aa8dae9576",
              "a8f9912af3427eee5933486a18e319fd5b7a5cc8cc2a792a420a6af83dea610d",
              "15261fca330f0d00d83d0800ae1b9b49d2187c5d2dc0b9d60b5622c16ed2e7e3")),
        ],
        ids=["db", "exhaustive"],
    )
    def test_census_out(self, tmp_path, capsys, typed_db_file, argv, shas):
        """``census --out OUT`` on ``typed_db_file`` and on three type-X
        first spreads: the stdout, the CSV at OUT and OUT.summary.json, and
        the keys of OUT.manifest.json."""
        out = tmp_path / "census.csv"
        argv = [str(typed_db_file) if a == "DB" else a for a in argv]
        assert self._sha(capsys, argv + ["--out", str(out)]) == shas[0]
        files = [out, tmp_path / "census.csv.summary.json"]
        digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]
        assert digests == list(shas[1:])
        manifest = json.loads((tmp_path / "census.csv.manifest.json").read_text())
        assert list(manifest) == ["command", "arguments", "version", "timestamp",
                                  "outputs"]
        assert manifest["outputs"] == dict(zip(map(str, files), digests))

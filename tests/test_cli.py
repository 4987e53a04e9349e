import hashlib
import json

import pytest

from spreadcodes import cli, corpus
from spreadcodes.constructions import cps_build
from spreadcodes.doubling import validate_doubling
from spreadcodes.spreadfile import format_spreads
from spreadcodes.spreads import classify


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
        wrong = dict(corpus.EXPECTED)
        wrong[1] = dict(wrong[1], ninth_pattern=(3, 3, 3, 1))
        monkeypatch.setattr(corpus, "EXPECTED", wrong)
        assert cli.main(["verify-paper"]) == 3
        assert "invariant violation" in capsys.readouterr().err

    def test_missing_file_is_1(self, capsys):
        assert cli.main(["classify", "/nonexistent/file.txt"]) == 1


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


class TestVerifyPaper:
    def test_all_pairs_ok(self, capsys):
        assert cli.main(["verify-paper"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert all(l.endswith("ok") for l in out)

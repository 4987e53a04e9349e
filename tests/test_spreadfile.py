import pytest
from hypothesis import given, settings, strategies as st

from spreadcodes import corpus, spreadfile
from spreadcodes.gf2geom import Subspace, parse_point
from spreadcodes.pg42 import tables
from spreadcodes.spreadfile import ParseError, load_spread_file, parse_spread_text

from conftest import format_spread, format_spreads


def _line_from_tokens(tokens, lineno: int) -> Subspace:
    """Oracle for the parser's line lookup: the line by ``rref``."""
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


def _parse_by_rref(text):
    """``parse_spread_text`` with each line resolved by the rref oracle."""
    lines = tables().lines

    def line_id(tokens, lineno, points):
        return lines.index(_line_from_tokens(tokens, lineno))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spreadfile, "_line_id", line_id)
        return parse_spread_text(text)


def _same_outcome(text):
    """Parse by table and by oracle: the same spreads or the same error."""
    try:
        want = _parse_by_rref(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as ei:
            parse_spread_text(text)
        assert str(ei.value) == str(exc) and ei.value.line == exc.line
        return
    got = parse_spread_text(text)
    assert [s.line_ids for s in got] == [s.line_ids for s in want]

GOOD = """
# a reference spread, wrapped over two physical lines
{1,25,125},{24,15,3u},{23,14,5u},{15u,4u,145},
{12,12u,u},{123,124,34},{2,35,14u},{3,13u,1u},{4,135,2u}
"""


class TestParsing:
    def test_single_block(self):
        spreads = parse_spread_text(GOOD)
        assert len(spreads) == 1

    def test_corpus_files_round_trip(self):
        for n in range(1, corpus.N_PAIRS + 1):
            s1, s2 = corpus.pair(n)
            text = format_spreads([s1, s2])
            back = parse_spread_text(text)
            assert back == [s1, s2]
            # order of lines inside each spread is preserved
            assert back[0].line_ids == s1.line_ids

    def test_blank_lines_split_blocks(self):
        text = GOOD + "\n\n" + GOOD
        assert len(parse_spread_text(text)) == 2

    def test_comments_ignored(self):
        text = GOOD.replace("{4,135,2u}", "{4,135,2u}  # inline comment")
        assert len(parse_spread_text(text)) == 1

    def test_load_file(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text(GOOD)
        assert len(load_spread_file(p)) == 1


class TestTableParserOracle:
    def test_corpus(self):
        text = _corpus_text()
        _same_outcome(text)
        assert len(parse_spread_text(text)) == 2 * corpus.N_PAIRS

    def test_sampled_spreads(self, sample_spreads):
        spreads = sample_spreads(200, 23)
        text = format_spreads(spreads)
        assert parse_spread_text(text) == spreads
        _same_outcome(text)


class TestErrors:
    def _err(self, text):
        """The parser's ParseError, which the rref oracle must raise too."""
        with pytest.raises(ParseError) as ei:
            parse_spread_text(text)
        _same_outcome(text)
        return ei.value

    @pytest.mark.parametrize("text", ["", "\n\n", "# header only\n\n  # more\n"])
    def test_no_spread_block(self, text):
        err = self._err(text)
        assert str(err) == "line 1: no spread block"

    def test_wrong_group_count(self):
        err = self._err("{1,25,125},{24,15,3u}")
        assert "2 brace groups" in str(err)
        assert err.line == 1

    def test_error_line_number(self):
        err = self._err("# header\n\n" + "{1,25,125},{24,15,3u}\n")
        assert err.line == 3

    def test_wrong_token_count(self):
        err = self._err(GOOD.replace("{24,15,3u}", "{2,34}"))
        assert "2 tokens" in str(err)

    def test_bad_token(self):
        err = self._err(GOOD.replace("{24,15,3u}", "{2,34,99}"))
        assert "99" in str(err)

    def test_not_a_line(self):
        # three independent points span a plane, not a line
        err = self._err(GOOD.replace("{24,15,3u}", "{1,2,4}"))
        assert "not a line" in str(err)

    def test_repeated_point(self):
        err = self._err(GOOD.replace("{24,15,3u}", "{1,1,1}"))
        assert "points {1,1,1} span dimension 1, not a line" in str(err)

    def test_zero_vector_token(self):
        # 12345u sums to the zero vector: the error names the token, not the line
        err = self._err(GOOD.replace("{24,15,3u}", "{12345u,1,2}"))
        assert str(err) == "line 3: point token '12345u' is the zero vector"

    def test_not_the_three_points(self):
        # a repeated token spans a line but does not list its 3 points
        err = self._err(GOOD.replace("{24,15,3u}", "{1,2,1}"))
        assert "3 points" in str(err)

    def test_text_outside_braces(self):
        err = self._err("junk " + GOOD.strip())
        assert "junk" in str(err)

    def test_intersecting_lines_rejected(self):
        err = self._err(GOOD.replace("{24,15,3u}", "{1,25,125}"))
        assert "invalid spread" in str(err)

    def test_line_listed_twice(self):
        # the same line under a second text: the repeated id is the first
        # intersecting pair
        err = self._err(GOOD.replace("{24,15,3u}", "{125, 1,25}"))
        assert str(err) == (
            "line 3: invalid spread: lines 1 and 2 intersect: "
            "Subspace(5, <1,25>), Subspace(5, <1,25>)"
        )

    def test_bad_group_among_groups_seen_before(self):
        # the second block's other eight groups repeat the first block's texts
        err = self._err(GOOD + "\n\n" + GOOD.replace("{24,15,3u}", "{1,2,4}"))
        assert str(err) == "line 9: points {1,2,4} span dimension 3, not a line"

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        p = tmp_path / "s.txt"
        for data, line in [
            (b"{1,2,12}\xc3\xa9\n", 1),
            (b"# ok\r\n\r\n{1,2,12}\n\xff\n", 4),
            (GOOD.encode() + b"\n\n# caf\xc3\xa9\n", 7),
        ]:
            p.write_bytes(data)
            with pytest.raises(ParseError) as ei:
                load_spread_file(p)
            assert ei.value.line == line
            assert "non-ASCII byte" in str(ei.value)


class TestGroupMemo:
    def test_line_id_once_per_distinct_group_per_parse(
        self, monkeypatch, sample_spreads
    ):
        """Each distinct brace-group text is resolved once per parse, and
        the memo does not outlive the parse."""
        spreads = sample_spreads(6, 7)
        spreads += spreads[:3]
        text = format_spreads(spreads)
        distinct = set(spreadfile._GROUP.findall(text))
        assert len(distinct) < 9 * len(spreads)
        calls = []
        line_id = spreadfile._line_id
        monkeypatch.setattr(
            spreadfile,
            "_line_id",
            lambda tokens, *a: calls.append(",".join(tokens)) or line_id(tokens, *a),
        )
        assert parse_spread_text(text) == spreads
        assert sorted(calls) == sorted(distinct)
        assert parse_spread_text(text) == spreads
        assert sorted(calls) == sorted([*distinct, *distinct])


def _corpus_text():
    pairs = [corpus.pair(n) for n in range(1, corpus.N_PAIRS + 1)]
    return format_spreads([s for pair in pairs for s in pair])


# characters of the grammar, blanks, comment marks and a few outside ASCII
_CHARS = st.one_of(
    st.sampled_from(list("{},12345u 0679#x\n\t\r") + ["\xe9", "\u0663", "\uff11"]),
    st.characters(),
)
_EDIT = st.tuples(
    st.sampled_from(["insert", "delete", "replace"]),
    st.integers(min_value=0),
    _CHARS,
)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_EDIT, min_size=1, max_size=8))
    def test_mutated_corpus_text_raises_only_parse_error(self, edits):
        # and the table parser agrees with the rref oracle on every text
        text = _corpus_text()
        for op, pos, ch in edits:
            i = pos % (len(text) + (op == "insert"))
            if op == "insert":
                text = text[:i] + ch + text[i:]
            elif op == "delete":
                text = text[:i] + text[i + 1:]
            else:
                text = text[:i] + ch + text[i + 1:]
        _same_outcome(text)


class TestFormatting:
    def test_points_ascending(self, reference_pairs):
        s1, _ = reference_pairs[0]
        text = format_spread(s1)
        assert text.count("{") == text.count("}") == 9
        for group in text[1:-1].split("},{"):
            toks = group.split(",")
            assert len(toks) == 3

    def test_format_parse_identity(self, reference_pairs):
        for s1, s2 in reference_pairs:
            assert parse_spread_text(format_spread(s1)) == [s1]

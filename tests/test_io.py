"""Round trips and error reporting for the text file formats."""

from __future__ import annotations

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxqp.io
from maxqp import GeneratorSpec, WeightedGraph, generate
from maxqp.errors import CapacityError, ParseError, ValidationError
from maxqp.io import (
    format_assignment,
    format_instance,
    parse_assignment,
    parse_instance,
    read_instance,
    write_instance,
)
from maxqp.schemes import parse_partition
from maxqp.treewidth import parse_decomposition

from util import (
    GENERATOR_SPECS,
    assert_same_graph,
    edge_list,
    random_graph,
    reference_parse_instance,
    solution,
    traced_peak,
)


class TestInstanceFormat:
    def test_round_trip(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, -1.0), (2, 3, 2.5)])
        H = parse_instance(format_instance(G))
        assert H.n == G.n and edge_list(H) == edge_list(G)

    def test_comments_and_blank_lines_ignored(self):
        text = "# generated\n\np maxqp 2 1\n# body\ne 1 2 -1\n"
        G = parse_instance(text)
        assert edge_list(G) == [(0, 1, -1.0)]

    def test_unit_weights_written_as_integers(self):
        G = WeightedGraph(2, [(0, 1, -1.0)])
        assert "e 1 2 -1" in format_instance(G)

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(
            st.sampled_from([2.0**63, 2.0**63 - 1024, 2.0**64, 1e300, 2.0**53 + 2, 3.0, 1e-300, 0.1])
            | st.floats(-1e300, 1e300).filter(lambda w: w != 0.0),
            max_size=12,
        ),
        signs=st.lists(st.booleans(), min_size=12, max_size=12),
    )
    def test_weights_written_as_format_number_writes_them(self, weights, signs):
        # integral weights as integers, past 2^63 too, and any other weight by repr
        weights = [-w if s else w for w, s in zip(weights, signs)]
        G = WeightedGraph(len(weights) + 1, [(0, i + 1, w) for i, w in enumerate(weights)])
        lines = [f"e {u + 1} {v + 1} {maxqp.io.format_number(w)}\n" for u, v, w in edge_list(G)]
        assert format_instance(G, ["c"]) == "".join([f"# c\np maxqp {G.n} {G.m}\n", *lines])

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("e 1 2 1\n")
        with pytest.raises(ParseError, match="missing header line"):
            parse_instance("# a comment and no newline")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_instance("p maxqp 2 1\ne 1 2 x\n")
        assert exc.value.line == 2

    def test_edge_count_must_match_header(self):
        with pytest.raises(ParseError):
            parse_instance("p maxqp 2 2\ne 1 2 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError):
            parse_instance("p maxqp 2 1\ne 1 3 1\n")

    def test_self_loop(self):
        with pytest.raises(ParseError):
            parse_instance("p maxqp 2 1\ne 1 1 1\n")

    def test_negative_vertex_count(self):
        with pytest.raises(ValidationError, match="vertex count must be nonnegative"):
            parse_instance("p maxqp -1 0\n")

    def test_finite_entries_overflowing_when_averaged(self):
        with pytest.raises(ValidationError, match=r"non-finite weight on edge \(0, 1\)"):
            parse_instance("p maxqp 2 2\ne 1 2 1e308\ne 2 1 1e308\n")

    def test_asymmetric_duplicates_are_averaged(self):
        G = parse_instance("p maxqp 2 2\ne 1 2 3\ne 2 1 1\n")
        assert edge_list(G) == [(0, 1, 2.0)]


def _edge_line(draw, body) -> int | None:
    """Index of a random "e" line of body, or None when there is none."""
    at = [i for i, line in enumerate(body) if line.startswith("e")]
    return draw(st.sampled_from(at)) if at else None


def _set_field(draw, body, field, value):
    i = _edge_line(draw, body)
    fields = body[i].split(" ") if i is not None else []
    if field < len(fields):
        fields[field] = value(fields[field])
        body[i] = " ".join(fields)


def _append_pair(draw, body, w1, w2):
    i = _edge_line(draw, body)
    fields = body[i].split(" ") if i is not None else []
    if len(fields) >= 3:
        u, v = fields[1], fields[2]
        body += [f"e {u} {v} {w1}", f"e {v} {u} {w2}"]


def _insert(draw, body, line):
    body.insert(draw(st.integers(0, len(body))), line)


def _every_edge_line(body, edit):
    for i, line in enumerate(body):
        if line.startswith("e"):
            body[i] = edit(line)


def _replace_space(draw, body, by):
    i = _edge_line(draw, body)
    at = [j for j, c in enumerate(body[i]) if c == " "] if i is not None else []
    if at:
        j = draw(st.sampled_from(at))
        body[i] = body[i][:j] + by + body[i][j + 1 :]


# Each mutation edits the body lines (everything after the header) in place.
_BODY_MUTATIONS = {
    "comment": lambda d, b: _insert(d, b, "# a comment"),
    "blank": lambda d, b: _insert(d, b, ""),
    "tab": lambda d, b: _replace_space(d, b, "\t"),
    "double-space": lambda d, b: _replace_space(d, b, "  "),
    "indent": lambda d, b: _set_field(d, b, 0, lambda t: " " + t),
    "missing-field": lambda d, b: _set_field(d, b, 3, lambda t: ""),
    "extra-field": lambda d, b: _set_field(d, b, 3, lambda t: t + " 7"),
    "plus-sign": lambda d, b: _set_field(d, b, 1, lambda t: "+" + t),
    "underscore": lambda d, b: _set_field(d, b, 2, lambda t: "0_" + t),
    "1_0": lambda d, b: _set_field(d, b, 1, lambda t: "1_0"),
    "bad-token": lambda d, b: _set_field(d, b, 2, lambda t: t + "x"),
    "huge-id": lambda d, b: _set_field(d, b, 1, lambda t: "9" * 25),
    "zero-id": lambda d, b: _set_field(d, b, 2, lambda t: "0"),
    "self-loop": lambda d, b: _set_field(d, b, 2, lambda t: "1"),
    "nan": lambda d, b: _set_field(d, b, 3, lambda t: "nan"),
    "inf": lambda d, b: _set_field(d, b, 3, lambda t: "-inf"),
    "huge-weight": lambda d, b: _set_field(d, b, 3, lambda t: d(st.sampled_from(["8e307", "1.5e308"]))),
    "overflowing-pair": lambda d, b: _append_pair(d, b, "1e308", "1e308"),
    "asymmetric": lambda d, b: _append_pair(d, b, "0.25", "-3"),
    "duplicate": lambda d, b: _append_pair(d, b, "1", "1"),
    "cancelling": lambda d, b: _append_pair(d, b, "1", "-1"),
    "unknown-record": lambda d, b: _insert(d, b, "q 1 2"),
    "second-header": lambda d, b: _insert(d, b, "p maxqp 2 1"),
    # tokens where numpy's text reader and int()/float() could disagree
    "trailing-space": lambda d, b: _set_field(d, b, 3, lambda t: t + " "),
    "hash-in-weight": lambda d, b: _set_field(d, b, 3, lambda t: "3#c"),
    "hex-weight": lambda d, b: _set_field(d, b, 3, lambda t: "0x1p3"),
    "float-id": lambda d, b: _set_field(d, b, 1, lambda t: t + ".0"),
    "zero-padded-id": lambda d, b: _set_field(d, b, 2, lambda t: "00" + t),
    "weight-spelling": lambda d, b: _set_field(
        d, b, 3, lambda t: d(st.sampled_from(["+inf", "Infinity", "1e-400", "-0"]))
    ),
    "five-fields-everywhere": lambda d, b: _every_edge_line(b, lambda line: line + " 7"),
}

# Every line break of str.splitlines() other than "\n", ASCII or not.
_LINE_BREAKS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _swap(draw, text, a, b):
    """Turn one random a in text into b, and one random b into a."""
    at_a = [i for i, c in enumerate(text) if c == a]
    at_b = [i for i, c in enumerate(text) if c == b]
    if not (at_a and at_b):
        return text
    chars = list(text)
    i, j = draw(st.sampled_from(at_a)), draw(st.sampled_from(at_b))
    chars[i], chars[j] = b, a
    return "".join(chars)


def _space_to(draw, text):
    """One random space turned into another separator: whitespace that
    str.splitlines() breaks at, or does not, or a non-ASCII line break."""
    at = [i for i, c in enumerate(text) if c == " "]
    if not at:
        return text
    by = draw(st.sampled_from(["\n", "\t", "\x1f", *_LINE_BREAKS]))
    i = draw(st.sampled_from(at))
    return text[:i] + by + text[i + 1 :]


# Applied to the joined text.  "moved-break" keeps every token and the count of
# newlines but moves a line break, so some lines get the wrong field count.
_TEXT_MUTATIONS = {
    "crlf": lambda d, t: t.replace("\n", "\r\n"),
    "no-final-newline": lambda d, t: t[:-1],
    "leading-newline": lambda d, t: "\n" + t,
    "moved-break": lambda d, t: _swap(d, t, "\n", " "),
    "space-to": _space_to,
}


@st.composite
def _instance_texts(draw):
    """A random instance as `format_instance` writes it, then mutated."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(0, n * (n - 1) // 2))
    G = random_graph(draw(st.integers(0, 2**32)), n, m, real=draw(st.booleans()))
    lines = format_instance(G).splitlines()
    head, body = lines[0].split(" "), lines[1:]
    for name in draw(st.lists(st.sampled_from(sorted(_BODY_MUTATIONS)), max_size=3)):
        _BODY_MUTATIONS[name](draw, body)
    # the header's m follows the edge lines, or it is off by one, or it stays
    m_of = draw(st.sampled_from(["follow", "off", "stay"]))
    if m_of != "stay":
        count = sum(1 for line in body if line.strip().startswith("e"))
        head[3] = str(count + (m_of == "off"))
    if draw(st.integers(0, 7)) == 0:  # n is 0, negative, over the cap, or past int64
        head[2] = draw(st.sampled_from(["0", "-1", str(10**7 + 1), str(10**20)]))
    lead = draw(st.lists(st.sampled_from(["# gen {}", "#", "  # indented"]), max_size=2))
    text = "\n".join([*lead, " ".join(head), *body]) + "\n"
    for name in draw(st.lists(st.sampled_from(sorted(_TEXT_MUTATIONS)), max_size=2)):
        text = _TEXT_MUTATIONS[name](draw, text)
    return text


def _outcome(parse, text):
    """The graph parse(text) returns, or its error as (type, message, line)."""
    try:
        return parse(text)
    except (ParseError, ValidationError, CapacityError) as e:
        return type(e), str(e), getattr(e, "line", None)


class TestInstanceColumns:
    """The column reader of canonical text against the line-by-line parser."""

    @staticmethod
    def _same_as_line_loop(text):
        got = _outcome(parse_instance, text)
        want = _outcome(reference_parse_instance, text)
        if isinstance(want, WeightedGraph):
            assert isinstance(got, WeightedGraph), got
            assert_same_graph(got, want)
            assert [w.hex() for _, _, w in edge_list(got)] == [w.hex() for _, _, w in edge_list(want)]
        else:
            assert got == want

    @settings(max_examples=600, deadline=None)
    @given(text=_instance_texts())
    def test_same_graph_or_same_error_as_line_loop(self, text):
        self._same_as_line_loop(text)

    @settings(max_examples=300, deadline=None)
    @given(text=_instance_texts(), block=st.integers(1, 12))
    def test_same_result_in_blocks_of_a_few_characters(self, text, block):
        # the edge lines are split in blocks of one or a few lines, so a mutation
        # lands in a later block than the first
        with mock.patch.object(maxqp.io, "TEXT_BLOCK", block):
            self._same_as_line_loop(text)

    @pytest.mark.parametrize("sep", _LINE_BREAKS)
    def test_line_break_inside_an_edge_line(self, sep):
        text = f"p maxqp 3 1\ne 1{sep}2 1\n"
        assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)
        assert _outcome(parse_instance, text)[2] == 2

    @pytest.mark.parametrize("sep", _LINE_BREAKS)
    def test_line_break_inside_a_leading_comment(self, sep):
        text = f"# gen{sep}q\np maxqp 3 1\ne 1 2 1\n"
        assert _outcome(parse_instance, text) == _outcome(reference_parse_instance, text)
        assert _outcome(parse_instance, text)[2] == 2

    @pytest.mark.parametrize("block", [maxqp.io.TEXT_BLOCK, 1])
    @pytest.mark.parametrize(
        "edge",
        ["e 2 3 -0.5", "e 3 1 1", "e 2 3 1 ", "e 2 3 3#c", "e 2 3 0x1p3", "e 2.0 3 1", "e 002 3 1",
         "e 2 3 +inf", "e 2 3 Infinity", "e 2 3 1e-400", "e 2 3 -0", "e 2 3 -nan", "e 2 3 1_0",
         "e 2\x1f3 1", "e 2 3 1 7"],
    )
    def test_tokens_where_the_readers_could_disagree(self, edge, block, monkeypatch):
        # at block 1 each edge line is a block of its own (so "e 2 3 1 7" is a
        # block whose every line has five fields), which the C reader gives as
        # a 0-d array unless asked for one dimension
        monkeypatch.setattr(maxqp.io, "TEXT_BLOCK", block)
        parts = []
        edge_columns = maxqp.io._edge_columns
        monkeypatch.setattr(
            maxqp.io, "_edge_columns", lambda block, n: parts.append(edge_columns(block, n)) or parts[-1]
        )
        self._same_as_line_loop(f"p maxqp 3 3\ne 1 2 0.25\n{edge}\ne 1 3 -2\n")
        if block == 1:
            assert parts[0] is not None

    @pytest.mark.parametrize(
        "kind, params",
        GENERATOR_SPECS
        + [
            ("sparse-random", {"n": 1, "m": 0}),
            # about 340,000 characters of edge lines: several blocks of TEXT_BLOCK
            ("sparse-random", {"n": 5000, "m": 10000, "real": True}),
        ],
    )
    def test_written_instances_are_read_by_columns(self, kind, params, tmp_path, monkeypatch):
        G = generate(GeneratorSpec(kind, 7, params))
        path = str(tmp_path / "g.mq")
        write_instance(G, path)
        edge_columns = maxqp.io._edge_columns

        def every_block_by_columns(block, n):
            part = edge_columns(block, n)
            assert part is not None, "a block of edge lines fell back to the line rules"
            return part

        monkeypatch.setattr(maxqp.io, "_edge_columns", every_block_by_columns)
        assert_same_graph(read_instance(path), G)
        # the comment line `maxqp gen` writes before the header
        assert_same_graph(parse_instance(format_instance(G, ["gen {}"])), G)
        # the same text saved with CRLF line ends
        assert_same_graph(parse_instance(format_instance(G, ["gen {}"]).replace("\n", "\r\n")), G)

    def test_parse_peak_memory_per_edge(self):
        # the C reader holds one block of lines at a time, not the whole file:
        # about 92 bytes per edge, as with the per-block token lists it replaced,
        # against 271 when the whole text was split at once; CRLF line ends and
        # a comment after the header keep the columns
        G = generate(GeneratorSpec("sparse-random", 7, {"n": 20000, "m": 40000, "real": True}))
        text = format_instance(G)
        for edited in [text, text.replace("\n", "\r\n"), text.replace("\n", "\n# body\n", 1)]:
            tracemalloc.start()
            try:
                parse_instance(edited)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 128 * G.m

    def test_parse_peak_keeps_the_merged_columns(self):
        # with no zero weight to drop, the merge keeps its sorted columns as
        # they are rather than filter them into copies: about 73 bytes per
        # edge, against 92 with the copies
        G = generate(GeneratorSpec("sparse-random", 7, {"n": 20000, "m": 40000, "real": True}))
        text = format_instance(G)
        assert traced_peak(lambda: parse_instance(text)) <= 80 * G.m

    @pytest.mark.parametrize("block", [maxqp.io.TEXT_BLOCK, 3])
    @pytest.mark.parametrize("w", ["1", "inf"])
    @pytest.mark.parametrize("vertex", [2**63 + 5, 2**64 + 5])
    def test_ids_past_int64_under_a_header_past_the_cap(self, vertex, w, block, monkeypatch):
        # ids past int64 reach the merge as exact ints: none wraps through uint64
        monkeypatch.setattr(maxqp.io, "TEXT_BLOCK", block)
        text = f"p maxqp {10**20} 2\ne 1 2 1\ne {vertex} 3 {w}\n"
        want = _outcome(reference_parse_instance, text)
        assert want[0] is (CapacityError if w == "1" else ValidationError)
        assert _outcome(parse_instance, text) == want


class TestAssignmentFormat:
    def test_round_trip(self):
        G = WeightedGraph(3, [(0, 1, 1.0)])
        a = solution(G, [1, -1, 1])
        assert format_assignment(a) == "+1 -1 +1\n"
        x = parse_assignment(format_assignment(a), 3)
        assert x.dtype == np.int8 and x.tolist() == [1, -1, 1]
        assert parse_assignment("1 -1\n+1", 3).tolist() == [1, -1, 1]
        assert format_assignment(solution(WeightedGraph(0, []), [])) == "\n"
        assert parse_assignment("", 0).tolist() == []

    def test_wrong_length(self):
        with pytest.raises(ParseError, match="expected 3 signs, found 2"):
            parse_assignment("+1 -1", 3)

    def test_bad_token(self):
        with pytest.raises(ParseError, match="got '0'"):
            parse_assignment("+1 0 -1", 3)
        # the first bad token is named, a NUL byte kept
        with pytest.raises(ParseError, match=re.escape("got '-1\\x00'")):
            parse_assignment("+1 -1\x00 +2", 3)

    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    def test_same_signs_and_errors_in_blocks_of_a_few_characters(self, block, monkeypatch):
        monkeypatch.setattr(maxqp.io, "TEXT_BLOCK", block)
        assert parse_assignment("+1 -1\t1\n\n-1 ", 4).tolist() == [1, -1, 1, -1]
        with pytest.raises(ParseError, match="expected 3 signs, found 4"):
            parse_assignment("+1 -1 0 -1", 3)
        with pytest.raises(ParseError, match=re.escape("got '-1\\x00'")):
            parse_assignment("+1 +1 -1 -1 +1 -1\x00 +2", 7)


class TestPartitionFormat:
    def test_parse(self):
        P = parse_partition("1 2\n3\n", 3)
        assert P.part_of.tolist() == [0, 0, 1]
        assert P.k == 2

    def test_parts_numbered_in_file_order(self):
        P = parse_partition("# parts\n4 3\n\n1\n2\n", 4)
        assert P.part_of.tolist() == [1, 2, 0, 0]
        assert P.k == 3

    @pytest.mark.parametrize("text", ["", "# no parts\n"])
    def test_text_without_parts_refused(self, text):
        with pytest.raises(ValidationError, match="partition does not cover every vertex"):
            parse_partition(text, 3)
        with pytest.raises(ValidationError, match="partition must have at least one part"):
            parse_partition(text, 0)

    def test_parse_errors_before_overlap_and_cover(self):
        # line 2 overlaps line 1 and vertex 4 is in no part, but line 3 is malformed
        with pytest.raises(ParseError, match="line 3"):
            parse_partition("1 2\n2 3\n5\n", 4)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_partition("1 4\n2 3\n", 3)

    def test_rejects_a_vertex_listed_twice(self):
        with pytest.raises(ParseError, match="line 2: part lists vertex 3 twice"):
            parse_partition("# parts\n3 1 3\n2\n", 3)


class TestDecompositionFormat:
    def test_parse_small_tree(self):
        td = parse_decomposition("b 1 1 2\nb 2 2 3\nt 1 2\n", 3)
        assert td.bags == ((1, 2), (0, 1))  # renumbered: the child first, the root last
        assert td.parent.tolist() == [1, -1]
        assert td.width == 1

    def test_requires_single_root(self):
        with pytest.raises(ParseError):
            parse_decomposition("b 1 1\nb 2 2\n", 3)

    def test_rejects_duplicate_bag_id(self):
        with pytest.raises(ParseError, match="line 2: duplicate bag id 1"):
            parse_decomposition("b 1 1 2\nb 1 2\n", 3)

    def test_rejects_a_vertex_listed_twice(self):
        with pytest.raises(ParseError, match="line 2: bag 2 lists vertex 2 twice"):
            parse_decomposition("b 1 1 2\nb 2 2 3 2\nt 1 2\n", 3)

    @pytest.mark.parametrize("vertex", ["5", "0", "-1"])
    def test_rejects_a_vertex_outside_1_to_n(self, vertex):
        with pytest.raises(ParseError, match=f"line 2: bag 2 mentions vertex {vertex}, outside 1..3"):
            parse_decomposition(f"b 1 1 2\nb 2 2 {vertex}\nt 1 2\n", 3)

    def test_rejects_second_parent_link(self):
        with pytest.raises(ParseError, match="bag 3 has more than one parent link"):
            parse_decomposition("b 1 1 2\nb 2 2 3\nb 3 3\nt 1 3\nt 2 3\nt 1 2\n", 3)

    def test_unknown_record(self):
        with pytest.raises(ParseError):
            parse_decomposition("q 1 2\n", 3)

    @pytest.mark.parametrize("record", ["t 1 2 junk", "t 1 2 3", "t 1"])
    def test_tree_record_has_exactly_two_bag_ids(self, record):
        with pytest.raises(ParseError, match="line 3: "):
            parse_decomposition(f"b 1 1 2\nb 2 2 3\n{record}\n", 3)

    def test_tree_link_errors_name_their_line(self):
        with pytest.raises(ParseError, match=r"line 3: tree link references unknown bag \(1, 7\)"):
            parse_decomposition("b 1 1 2\nb 2 2 3\nt 1 7\nt 1 2\n", 3)
        with pytest.raises(ParseError, match="line 5: bag 3 has more than one parent link"):
            parse_decomposition("b 1 1 2\nb 2 2 3\nb 3 3\nt 1 3\nt 2 3\nt 1 2\n", 3)

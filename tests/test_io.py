"""Round trips and error reporting for the text file formats."""

from __future__ import annotations

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
    random_graph,
    reference_parse_instance,
    solution,
)


class TestInstanceFormat:
    def test_round_trip(self):
        G = WeightedGraph(4, [(0, 1, 1.0), (1, 2, -1.0), (2, 3, 2.5)])
        H = parse_instance(format_instance(G))
        assert H.n == G.n and H.edges == G.edges

    def test_comments_and_blank_lines_ignored(self):
        text = "# generated\n\np maxqp 2 1\n# body\ne 1 2 -1\n"
        G = parse_instance(text)
        assert G.edges == [(0, 1, -1.0)]

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
        lines = [f"e {u + 1} {v + 1} {maxqp.io.format_number(w)}\n" for u, v, w in G.edges]
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
        assert G.edges == [(0, 1, 2.0)]


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

    @settings(max_examples=600, deadline=None)
    @given(text=_instance_texts())
    def test_same_graph_or_same_error_as_line_loop(self, text):
        got = _outcome(parse_instance, text)
        want = _outcome(reference_parse_instance, text)
        if isinstance(want, WeightedGraph):
            assert isinstance(got, WeightedGraph), got
            assert_same_graph(got, want)
            assert [w.hex() for _, _, w in got.edges] == [w.hex() for _, _, w in want.edges]
        else:
            assert got == want

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

    @pytest.mark.parametrize("kind, params", GENERATOR_SPECS + [("sparse-random", {"n": 1, "m": 0})])
    def test_written_instances_are_read_by_columns(self, kind, params, tmp_path, monkeypatch):
        G = generate(GeneratorSpec(kind, 7, params))
        path = str(tmp_path / "g.mq")
        write_instance(G, path)

        def no_line_loop(text):
            raise AssertionError("canonical text fell back to the line loop")

        monkeypatch.setattr(maxqp.io, "_line_columns", no_line_loop)
        assert_same_graph(read_instance(path), G)
        # the comment line `maxqp gen` writes before the header
        assert_same_graph(parse_instance(format_instance(G, ["gen {}"])), G)


class TestAssignmentFormat:
    def test_round_trip(self):
        G = WeightedGraph(3, [(0, 1, 1.0)])
        a = solution(G, [1, -1, 1])
        assert parse_assignment(format_assignment(a), 3) == [1, -1, 1]

    def test_wrong_length(self):
        with pytest.raises(ParseError):
            parse_assignment("+1 -1", 3)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_assignment("+1 0 -1", 3)


class TestPartitionFormat:
    def test_parse(self):
        P = parse_partition("1 2\n3\n", 3)
        assert P.parts == ((0, 1), (2,))

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_partition("1 4\n2 3\n", 3)


class TestDecompositionFormat:
    def test_parse_small_tree(self):
        td = parse_decomposition("b 1 1 2\nb 2 2 3\nt 1 2\n")
        assert td.bags == ((0, 1), (1, 2))
        assert td.parent == (None, 0)
        assert td.width == 1

    def test_requires_single_root(self):
        with pytest.raises(ParseError):
            parse_decomposition("b 1 1\nb 2 2\n")

    def test_rejects_duplicate_bag_id(self):
        with pytest.raises(ParseError, match="line 2: duplicate bag id 1"):
            parse_decomposition("b 1 1 2\nb 1 2\n")

    def test_rejects_second_parent_link(self):
        with pytest.raises(ParseError, match="bag 3 has more than one parent link"):
            parse_decomposition("b 1 1 2\nb 2 2 3\nb 3 3\nt 1 3\nt 2 3\nt 1 2\n")

    def test_unknown_record(self):
        with pytest.raises(ParseError):
            parse_decomposition("q 1 2\n")

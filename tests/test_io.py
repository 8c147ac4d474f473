"""Round trips and error reporting for the text file formats."""

from __future__ import annotations

import pytest

from maxqp import WeightedGraph
from maxqp.errors import ParseError, ValidationError
from maxqp.io import format_assignment, format_instance, parse_assignment, parse_instance
from maxqp.schemes import parse_partition
from maxqp.treewidth import parse_decomposition

from util import solution


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

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_instance("e 1 2 1\n")

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

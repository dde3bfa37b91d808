"""Graph file parsing/serialization and DOT export."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from signed_nullity import GraphFormatError, build_graph, parse_graph, serialize_graph, to_dot
from signed_nullity import graphio
from signed_nullity.graphio import MAX_FILE_ORDER
from oracles import cycle_graph


class TestParseGraph:
    def test_k2_positive(self):
        assert parse_graph("2 1\n0 1 +") == build_graph(2, [(0, 1, 1)])

    def test_theta_with_negative_chord(self):
        text = "4 5\n0 1 +\n1 2 +\n2 3 +\n0 3 +\n0 2 -"
        g = parse_graph(text)
        assert g.order == 4 and len(g.edges) == 5
        assert g.sign_of(0, 2) == -1

    def test_comments_and_blank_lines_ignored(self):
        text = "# a triangle\n\n3 3\n0 1 +\n# middle comment\n1 2 +\n\n0 2 -\n"
        g = parse_graph(text)
        assert len(g.edges) == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(GraphFormatError, match="line 2: self-loop"):
            parse_graph("2 1\n0 0 +")

    def test_duplicate_edge_reports_both_lines(self):
        with pytest.raises(GraphFormatError, match="line 3.*first seen at line 2"):
            parse_graph("2 2\n0 1 +\n1 0 -")

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            parse_graph("2 1\n0 2 +")

    def test_numeric_sign_token_rejected(self):
        with pytest.raises(GraphFormatError, match="sign token"):
            parse_graph("2 1\n0 1 1")
        with pytest.raises(GraphFormatError, match="sign token"):
            parse_graph("2 1\n0 1 -1")

    def test_malformed_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("2\n0 1 +")
        with pytest.raises(GraphFormatError, match="header"):
            parse_graph("two 1\n0 1 +")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="announces 2 edges"):
            parse_graph("3 2\n0 1 +")

    def test_empty_document(self):
        with pytest.raises(GraphFormatError, match="missing header"):
            parse_graph("# nothing here\n")

    def test_edgeless_graph(self):
        assert parse_graph("4 0\n") == build_graph(4, [])

    def test_order_cap(self):
        assert parse_graph(f"{MAX_FILE_ORDER} 0\n").order == MAX_FILE_ORDER
        with pytest.raises(GraphFormatError, match="line 1: order .* exceeds"):
            parse_graph(f"{MAX_FILE_ORDER + 1} 0\n")

    def test_huge_order_rejected_before_any_graph_is_built(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(graphio, "build_graph", refuse)
        with pytest.raises(GraphFormatError, match="exceeds"):
            parse_graph("100000000 0\n")


# arbitrary text, and text over the file syntax's own characters, which
# reaches the header and edge-line checks far more often
_texts = st.one_of(st.text(max_size=80), st.text(alphabet="0123456789 +-#\n\t", max_size=60))


@settings(max_examples=400, deadline=None)
@given(_texts)
def test_arbitrary_text_gives_a_graph_or_a_format_error(text):
    try:
        g = parse_graph(text)
    except GraphFormatError:
        return
    assert parse_graph(serialize_graph(g)) == g


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        g = build_graph(5, [(0, 4, -1), (1, 2, 1), (0, 2, -1)])
        assert parse_graph(serialize_graph(g)) == g

    def test_parse_then_serialize_normalizes(self):
        text = "3 2\n2 0 -\n1 0 +\n"
        normalized = serialize_graph(parse_graph(text))
        assert normalized == "3 2\n0 1 +\n0 2 -\n"
        # stable from then on
        assert serialize_graph(parse_graph(normalized)) == normalized


class TestDot:
    def test_sign_attributes_and_styles(self):
        g = build_graph(3, [(0, 1, 1), (1, 2, -1)])
        dot = to_dot(g)
        assert dot.startswith("graph {")
        assert '0 -- 1 [sign="+", style=solid];' in dot
        assert '1 -- 2 [sign="-", style=dashed];' in dot
        assert dot.rstrip().endswith("}")

    def test_isolated_vertices_listed(self):
        dot = to_dot(build_graph(2, []))
        assert "  0;" in dot and "  1;" in dot

    def test_every_cycle_edge_present(self):
        dot = to_dot(cycle_graph(4))
        assert dot.count(" -- ") == 4

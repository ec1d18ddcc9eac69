import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockspectra import (
    block_path,
    build_graph,
    format_dot,
    format_edge_list,
    format_json,
    parse_edge_list,
    star_graph,
)
from blockspectra.cli import main
from _util import clique_tree


class TestEdgeList:
    def test_format(self):
        text = format_edge_list(build_graph(3, [(2, 3), (1, 2)]))
        assert text == "3 2\n1 2\n2 3\n"

    def test_weights_written_only_when_not_unit(self):
        g = build_graph(3, [(1, 2), (2, 3)], {(2, 3): 2.5})
        assert format_edge_list(g) == "3 2\n1 2\n2 3 2.5\n"

    def test_round_trip_weighted(self):
        g = build_graph(
            4, [(1, 2), (2, 3), (3, 4)], {(1, 2): 0.1, (3, 4): 123.456789012345}
        )
        assert parse_edge_list(format_edge_list(g)) == g

    @settings(max_examples=40, deadline=None)
    @given(st.builds(
        clique_tree,
        st.lists(st.integers(2, 5), min_size=1, max_size=4),
        st.lists(st.integers(0, 100), min_size=3, max_size=3),
    ))
    def test_round_trip_generated(self, g):
        assert parse_edge_list(format_edge_list(g)) == g

    def test_weight_on_a_reversed_pair(self):
        # build_graph sorts each weight's key, as it sorts each edge
        g = build_graph(3, [(1, 2), (2, 3)], {(1, 2): 2.5})
        assert parse_edge_list("3 2\n2 1 2.5\n3 2\n") == g
        with pytest.raises(ValueError, match=r"^invalid graph: weight -1\.0 on edge \(1,2\) is"):
            parse_edge_list("2 1\n2 1 -1\n")

    def test_blank_lines_tolerated(self):
        assert parse_edge_list("\n2 1\n\n1 2\n\n").m == 1

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            parse_edge_list("")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_edge_list("3\n")

    def test_non_integer_vertex(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_edge_list("2 1\na b\n")

    def test_bad_weight(self):
        with pytest.raises(ValueError, match="weight"):
            parse_edge_list("2 1\n1 2 heavy\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ValueError, match="declares 2 edges"):
            parse_edge_list("3 2\n1 2\n")

    def test_invalid_graph_reported(self):
        with pytest.raises(ValueError, match="self-loop"):
            parse_edge_list("2 1\n1 1\n")

    def test_stdout_round_trip(self, capsys):
        # the CLI prints graph files with `gen` and reads them back
        assert main(["gen", "block-path", "-k", "3", "-p", "2"]) == 0
        assert parse_edge_list(capsys.readouterr().out) == block_path(3, 2)


class TestDot:
    def test_structure(self):
        text = format_dot(star_graph(2))
        lines = text.splitlines()
        assert lines[0] == "graph blockspectra {"
        assert "  1;" in lines and "  3;" in lines
        assert "  1 -- 2;" in lines
        assert lines[-1] == "}"

    def test_weight_label(self):
        g = build_graph(2, [(1, 2)], {(1, 2): 2.0})
        assert 'label="2.0"' in format_dot(g)

    def test_isolated_vertices_listed(self):
        text = format_dot(build_graph(2, []))
        assert "  1;" in text and "  2;" in text


json_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


class TestJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, obj):
        assert format_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        {3: "int", 1.5: "float", True: "bool"},
        {"a": {}, "b": [], "c": [{}]},
        (1, [2.0, float("nan"), float("-inf")], ("x",)),
        "\u00e9\u2603 \"quoted\"\n",
        [],
        [[]],
        [1, "a", None, True, [2.5, {}], {"k": [False]}, -3],
        (0.5, -1, "t", None),
        {"v": [float("nan"), -0.0, 0.0, 1e-300, float("inf")]},
    ])
    def test_matches_json_dumps_on_keys_tuples_and_escapes(self, obj):
        assert format_json(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            format_json({"x": object()})


@pytest.mark.parametrize("call,arg,error,message", [
    (parse_edge_list, "2 x\n", ValueError, "line 1: header must contain two integers"),
    (parse_edge_list, "2 1\n1 2 3 4\n", ValueError, "line 2: expected 'u v' or 'u v w'"),
    (format_json, {(1, 2): "tuple key"}, TypeError,
     "keys must be str, int, float, bool or None, not tuple"),
])
def test_input_error(call, arg, error, message):
    with pytest.raises(error, match=message):
        call(arg)

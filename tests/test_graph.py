import numpy as np
import pytest

from infmax.graph import Graph, as_seed_tuple, format_edge_list, parse_edge_list


def test_basic_construction_and_csr():
    g = Graph.from_edges(4, [(0, 1, 0.5), (0, 2, 0.25), (2, 3, 1.0)])
    assert g.num_nodes == 4
    assert g.num_edges == 3
    assert list(g.out_edges(0)) == [0, 1]
    assert list(g.in_edges(3)) == [2]
    assert list(g.in_edges(0)) == []


@pytest.mark.parametrize("edges,message", [
    ([(0, 9, 0.5)], "out of range"),
    ([(0, 1, 1.5)], "probability"),
    ([(0, 1, -0.1)], "probability"),
    ([(0, 1, 0.5, 3), (2, 3, 0.5, 3)], "share one tail"),
    ([(0, 1, 0.5, 3), (0, 2, 0.6, 3)], "agree"),
    ([(0, 1, float("nan"))], "probability"),
])
def test_validation_errors(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph.from_edges(4, edges)


def test_negative_weights_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        Graph.from_edges(2, [(0, 1, 0.5)], node_weights=[1.0, -1.0])


@pytest.mark.parametrize("text,message", [
    ("#nodes 3\n#weight 1 nan\n0 1 nan\n", "probability"),
    ("#nodes 3\n#weight 1 nan\n0 1 0.5\n", "finite"),
    ("#nodes 3\n#weight 1 inf\n0 1 0.5\n", "finite"),
    ("#nodes 3\n#weight 1 -inf\n0 1 0.5\n", "finite"),
])
def test_non_finite_input_rejected(text, message):
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)


def test_seed_tuple_normalization():
    assert as_seed_tuple(5, [3, 1, 3]) == (1, 3)
    assert as_seed_tuple(5, 2) == (2,)
    with pytest.raises(ValueError, match="empty seed set"):
        as_seed_tuple(5, [])
    with pytest.raises(ValueError, match="out of range"):
        as_seed_tuple(5, [5])


def test_edge_list_round_trip():
    g = Graph.from_edges(4, [(0, 1, 0.5), (0, 2, 0.5, 7), (0, 3, 0.5, 7)],
                         node_weights=[1.0, 2.5, 1.0, 0.0])
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert back.num_nodes == 4
    assert back.edge_tuples() == g.edge_tuples()
    assert np.array_equal(back.node_weights, g.node_weights)
    assert format_edge_list(back) == text


def test_edge_list_parse_errors():
    with pytest.raises(ValueError, match="#nodes"):
        parse_edge_list("0 1 0.5\n")
    with pytest.raises(ValueError, match="unknown directive"):
        parse_edge_list("#nodes 2\n#frobnicate 1\n")
    with pytest.raises(ValueError, match="expected"):
        parse_edge_list("#nodes 2\n0 1\n")

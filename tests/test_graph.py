from pathlib import Path

import numpy as np
import pytest

from infmax.graph import Graph, as_seed_tuple, format_edge_list, parse_edge_list
from infmax.models import bdep_model


def test_basic_construction_and_csr():
    g = Graph.from_edges(4, [(0, 1, 0.5), (0, 2, 0.25), (2, 3, 1.0)])
    assert g.num_nodes == 4
    assert g.num_edges == 3
    assert list(g.out_edges(0)) == [0, 1]
    assert list(g.in_edges(3)) == [2]
    assert list(g.in_edges(0)) == []


def test_in_edge_order_is_the_stable_argsort_of_heads():
    # The packed-key sort orders in-edges by head, then edge id: no edges,
    # one head repeated, and random graphs with repeated heads.
    draw = np.random.default_rng(4)
    cases = [(3, np.zeros(0, dtype=np.int64)), (5, np.full(9, 2)), (1, np.zeros(4, dtype=int))]
    cases += [(n, draw.integers(0, n, size=m)) for n, m in ((2, 50), (40, 7), (300, 2000))]
    for n, heads in cases:
        tails = (heads + 1) % max(n, 1)
        g = Graph(n, tails, heads, np.full(heads.size, 0.5), np.full(heads.size, -1),
                  np.ones(n))
        expect = np.argsort(heads, kind="stable")
        assert g._in_order.dtype == np.int64
        assert np.array_equal(g._in_order, expect)
        assert np.array_equal(g.reversed._in_order, np.argsort(tails, kind="stable"))


def test_reversed_turns_edges_around_and_drops_groups():
    g = Graph.from_edges(4, [(0, 1, 0.5, 7), (0, 2, 0.5, 7), (2, 3, 1.0), (3, 0, 0.25)],
                         node_weights=[1.0, 2.5, 1.0, 0.0])
    r = g.reversed
    assert r is g.reversed
    assert r.num_nodes == 4 and r.num_edges == 4
    assert np.array_equal(r.tails, g.heads) and np.array_equal(r.heads, g.tails)
    assert np.array_equal(r.probs, g.probs)
    assert np.array_equal(r.node_weights, g.node_weights)
    assert np.array_equal(r.groups, [-1, -1, -1, -1])
    # edge ids are kept: r's in-edges of a node are g's out-edges
    for v in range(4):
        assert list(r.in_edges(v)) == list(g.out_edges(v))
        assert list(r.out_edges(v)) == list(g.in_edges(v))
    assert list(r.in_edges(0)) == [0, 1]
    # the double reverse is a new graph with g's edges, not g itself
    rr = r.reversed
    assert rr is not g
    assert np.array_equal(rr.tails, g.tails) and np.array_equal(rr.heads, g.heads)
    assert np.array_equal(rr.probs, g.probs)


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


def test_readme_edge_list_example_parses():
    # The first fenced block after README's "File formats" heading, verbatim.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## File formats", 1)[1]
    block = section.split("```\n", 2)[1]
    g = parse_edge_list(block)
    assert g.num_nodes == 5
    assert g.edge_tuples() == [(0, 1, 0.5), (0, 2, 0.5, 7), (0, 3, 0.5, 7)]
    assert g.node_weights.tolist() == [1.0, 1.0, 1.0, 2.5, 1.0]


def test_edge_list_parse_errors():
    with pytest.raises(ValueError, match="#nodes"):
        parse_edge_list("0 1 0.5\n")
    with pytest.raises(ValueError, match="unknown directive"):
        parse_edge_list("#nodes 2\n#frobnicate 1\n")
    with pytest.raises(ValueError, match="expected"):
        parse_edge_list("#nodes 2\n0 1\n")


@pytest.mark.parametrize("text,message", [
    ("#nodes 3\n1 1 0.5\n", "self-loop"),
    ("#nodes 3\n0 1 0.5\n1 2 0.5\n2 2 1.0 4\n", "line 4: self-loop"),
    ("#nodes 3\n0 1 0.5\n0 1 0.5\n", "line 3: duplicate edge"),
    ("#nodes 3\n0 1 0.5 2\n0 2 0.5 2\n0 1 0.25\n", "duplicate edge \\(0, 1\\)"),
])
def test_edge_list_rejects_self_loops_and_duplicates(text, message):
    with pytest.raises(ValueError, match=message):
        parse_edge_list(text)


def test_graph_accepts_repeated_pairs_for_mixture_unions():
    # a mixture's union graph repeats pairs its components share
    g = Graph.from_edges(2, [(0, 1, 0.5), (0, 1, 0.25)])
    assert g.num_edges == 2


def many_groups(count):
    """``count`` groups of two edges each, all leaving node 0."""
    n = 2 * count + 1
    heads = np.arange(1, n)
    groups = np.repeat(np.arange(count), 2)
    return n, np.zeros(n - 1, dtype=np.int64), heads, np.full(n - 1, 0.5), groups


def test_many_groups_validate_in_one_pass():
    # 20,000 groups took over a second when each group scanned every edge.
    n, tails, heads, probs, groups = many_groups(20_000)
    g = Graph(n, tails, heads, probs, groups, np.ones(n))
    assert g.num_edges == 40_000
    assert bdep_model(g, 2).b == 2
    # Groups 7 and 9 grow to three and four edges; the smaller id is named.
    groups = groups.copy()
    groups[100] = 7
    groups[[300, 301]] = 9
    with pytest.raises(ValueError, match="group 7 has 3 edges, bound is 2"):
        bdep_model(Graph(n, tails, heads, probs, groups, np.ones(n)), 2)


@pytest.mark.parametrize("bad_tail,bad_prob,message", [
    (9, 9, "group 9: edges must share one tail"),
    (12, 9, "group 9: per-edge probabilities must agree"),
    (9, 12, "group 9: edges must share one tail"),
])
def test_the_smallest_bad_group_is_named(bad_tail, bad_prob, message):
    n, tails, heads, probs, groups = many_groups(50)
    tails, probs = tails.copy(), probs.copy()
    # The last edge of each named group breaks it.
    tails[2 * bad_tail + 1] = 3
    probs[2 * bad_prob + 1] = 0.25
    # Groups listed out of id order.
    order = np.random.default_rng(0).permutation(n - 1)
    with pytest.raises(ValueError, match=message):
        Graph(n, tails[order], heads[order], probs[order], groups[order], np.ones(n))

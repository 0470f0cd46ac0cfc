"""Fuzz tests of the file boundary: edge-list text and model documents,
and malformed sketch files.  The vectorized edge-list reader is checked
against the line loop it falls back on.

Every input either loads or raises one of the exceptions that ``cli.main``
maps to exit code 2.
"""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import infmax as im
from infmax import cli
from infmax import graph as graph_module
from infmax.graph import format_edge_list, parse_edge_list

INPUT_ERRORS = (ValueError, KeyError, OSError)

ints = st.one_of(st.integers(-3, 12), st.integers(), st.integers(2**62, 2**70))
floats = st.one_of(st.sampled_from(["0.5", "1", "0", "-0.1", "1.5", "nan", "inf", "1e999"]),
                   st.floats().map(repr))
tokens = st.one_of(ints.map(str), floats, st.sampled_from(["#nodes", "#weight", "#", "x"]),
                   st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6))


def _join(parts):
    return " ".join(map(str, parts))


# ``#nodes`` stays small: the header allocates its node arrays before any
# other check, so a huge count is a memory question, not a parsing one.
lines = st.one_of(
    st.integers(-2, 1000).map(lambda n: f"#nodes {n}"),
    st.tuples(ints, floats).map(lambda vw: f"#weight {vw[0]} {vw[1]}"),
    st.tuples(ints, ints, floats).map(_join),
    st.tuples(ints, ints, floats, ints).map(_join),
    st.lists(tokens, max_size=5).map(_join).filter(lambda s: "#nodes" not in s),
)


@settings(max_examples=300)
@given(text=st.lists(lines, max_size=10).map("\n".join))
def test_edge_list_loads_or_raises_input_error(text):
    try:
        graph = parse_edge_list(text)
    except INPUT_ERRORS:
        return
    assert isinstance(graph, im.Graph)


def fields(g):
    """The node count and every array's bytes."""
    arrays = (g.tails, g.heads, g.probs, g.groups, g.node_weights)
    return g.num_nodes, *(arr.tobytes() for arr in arrays)


def parsed(parse, text):
    """:func:`fields` of ``parse(text)``, or the error's type and message."""
    try:
        return fields(parse(text))
    except INPUT_ERRORS as exc:
        return type(exc), str(exc)


# A header and edge lines of one width, which the vectorized reader takes
# unless a check fails.
small = st.one_of(st.integers(-1, 13).map(str), st.sampled_from(["+5", "007", "-0", "1_0", "5.0"]))
uniform = st.tuples(
    st.integers(0, 14),
    st.one_of(st.lists(st.tuples(small, small, floats).map(_join), min_size=1, max_size=8),
              st.lists(st.tuples(small, small, floats, small).map(_join), min_size=1,
                       max_size=8))).map(lambda nr: "\n".join([f"#nodes {nr[0]}", *nr[1]]))


@settings(max_examples=300)
@given(text=st.one_of(st.lists(lines, max_size=10).map("\n".join), uniform))
def test_edge_list_parse_matches_the_line_loop(text):
    assert parsed(parse_edge_list, text) == parsed(graph_module._parse_lines, text)


# Probabilities that a writer's repr must carry exactly: subnormals, the
# largest double below 1, and arbitrary floats in [0, 1].
probabilities = st.one_of(st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308,
                                           1 - 2**-53, 0.1]),
                          st.floats(0.0, 1.0))


@st.composite
def graphs(draw):
    """Simple digraphs with grouped and ungrouped edges, some of one width
    only, and node weights other than 1."""
    n = draw(st.integers(2, 9))
    pairs = [(t, h) for t in range(n) for h in range(n) if t != h]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    width = draw(st.sampled_from(["3", "4", "mixed"]))
    group_p = {}
    edges = []
    for t, h in chosen:
        grouped = width == "4" or (width == "mixed" and draw(st.booleans()))
        if grouped:
            # One group per tail, so a group's edges share tail and p.
            p = group_p.setdefault(t, draw(probabilities))
            edges.append((t, h, p, t))
        else:
            edges.append((t, h, draw(probabilities)))
    weights = draw(st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1e300)),
                            min_size=n, max_size=n))
    return im.Graph.from_edges(n, edges, node_weights=weights)


@given(g=graphs())
def test_edge_lists_round_trip_bit_for_bit(g):
    text = format_edge_list(g)
    back = parse_edge_list(text)
    assert fields(back) == fields(graph_module._parse_lines(text)) == fields(g)
    assert format_edge_list(back) == text
    widths = {3 + (gid >= 0) for gid in g.groups.tolist()}
    # Every edge list of one width is read by the vectorized reader.
    assert (graph_module._read_columns(text) is not None) == (len(widths) == 1)


@pytest.mark.parametrize("text", [
    "#nodes 6\n+5 1 0.5\n",
    "#nodes 11\n1_0 1 0.5\n0 1 1_0e-1\n",
    "#nodes 3\r\n0 1 0.5\r\n1 2 0.25\r\n",
    "#nodes 3\n0 1 0.5\x0c1 2 0.25\n",
    "#nodes 3\n0 1 0.5 # note\n",
    "#nodes 3\n0 1 0.5\n1 2 0.25 #\n",
    "#nodes 3\n0 1 0.5\n  #weight 1 2.5\n\t\n1 2 0.25",
    "#nodes 3\n",
    "#nodes 3\n#weight 2 0.5\n\n",
    "#nodes 3\n0 1 5.0\n",
    "#nodes 3\n0 1.0 0.5\n",
    "#nodes 3\n0 1 0.5\n0 2 0.5 1\n",
    "#nodes 3\n0 1 0.5 1\n0 2 0.25 1\n",
    "#nodes 3\n0 1 0.5\n#nodes 2\n",
    "#nodes 4\n0 1 0.5\n2 3 0.5\n0 1 0.5\n",
    "#nodes 4\n0 1 0.5\n3 3 0.5\n",
    "#nodes 4\n0 9 0.5\n",
    "#nodes 4\n9223372036854775808 1 0.5\n",
    "#nodes 4\n0 1 0.5\n#weight 7 2\n",
    "#nodes 4\n0 1 \u00bd\n",
])
def test_edge_list_edge_cases_match_the_line_loop(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parsed(parse_edge_list, text) == parsed(graph_module._parse_lines, text)


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
names = st.one_of(st.sampled_from(["g.edges", "grp.edges", "c.model", "m.model",
                                   "missing.edges", "", ".", "..", "/", "g.edges/x"]),
                  st.text(max_size=8), json_values)
kinds = st.one_of(st.sampled_from(["ic", "lt", "bdep", "mixture", "sir"]), json_values)
components = st.lists(
    st.one_of(st.fixed_dictionaries({"path": names,
                                     "weight": st.one_of(st.floats(), json_values)}),
              json_values),
    max_size=3)
documents = st.one_of(
    json_values,
    st.fixed_dictionaries({"kind": kinds}, optional={
        "graph_path": names,
        "b": st.one_of(st.integers(-1, 4), json_values),
        "lt_weights": st.one_of(st.lists(st.lists(st.one_of(st.integers(0, 3), json_values),
                                                  max_size=4), max_size=3),
                                json_values),
        "components": st.one_of(components, json_values),
    }))

COMPANIONS = {
    "g.edges": "#nodes 3\n0 1 0.5\n1 2 0.25\n",
    "grp.edges": "#nodes 3\n0 1 0.5 0\n0 2 0.5 0\n",
    "c.model": json.dumps({"kind": "ic", "graph_path": "g.edges"}),
}


@settings(max_examples=300)
@given(doc=documents)
def test_model_document_loads_or_raises_input_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in COMPANIONS.items():
            (tmp / name).write_text(text)
        (tmp / "m.model").write_text(json.dumps(doc))
        try:
            model = im.load_model(tmp / "m.model")
        except INPUT_ERRORS:
            return
        assert isinstance(model, im.DiffusionModel)


def _mixture(*paths):
    return json.dumps({"kind": "mixture",
                       "components": [{"path": p, "weight": 1 / len(paths)} for p in paths]})


def test_a_mixture_that_includes_itself_is_malformed(tmp_path, capsys):
    for name, text in COMPANIONS.items():
        (tmp_path / name).write_text(text)
    # Directly; through a second mixture file, named another way; and a
    # file included twice, which is no loop.
    (tmp_path / "self.model").write_text(_mixture("self.model"))
    (tmp_path / "a.model").write_text(_mixture("c.model", "b.model"))
    (tmp_path / "b.model").write_text(_mixture("./a.model"))
    (tmp_path / "twice.model").write_text(_mixture("c.model", "c.model"))
    for name, culprit in (("self.model", "self.model"), ("a.model", "./a.model")):
        message = f"model file {str(tmp_path / culprit)!r} includes itself"
        with pytest.raises(ValueError) as raised:
            im.load_model(tmp_path / name)
        assert str(raised.value) == message
        assert cli.main(["exact", "--model", str(tmp_path / name), "--seeds", "0",
                         "--tau", "1"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert len(im.load_model(tmp_path / "twice.model").components) == 2


def _set(key, value):
    def edit(doc):
        doc[key] = value
        return doc
    return edit


def _first_sketch(key, value):
    def edit(doc):
        doc["sketches"][0][key] = value
        return doc
    return edit


def _repeat_first_pair(doc):
    first = doc["sketches"][0]
    for key in ("ranks", "pair_nodes", "pair_sims"):
        first[key].append(first[key][0])
    return doc


def _first_weight(value):
    def edit(doc):
        doc["node_weights"][0] = value
        return doc
    return edit


def _first_rank(index, value):
    def edit(doc):
        doc["sketches"][0]["ranks"][index] = value
        return doc
    return edit


def _reverse_first_sketch(doc):
    first = doc["sketches"][0]
    assert len(set(first["ranks"])) > 1
    for key in ("ranks", "pair_nodes", "pair_sims"):
        first[key].reverse()
    return doc


SKETCH_EDITS = {
    "k-not-int": _set("k", "x"),
    "k-bool": _set("k", True),
    "k-below-minimum": _set("k", 1),
    "ell-zero": _set("ell", 0),
    "top-level-list": lambda doc: [doc],
    "sketches-not-list": _set("sketches", {}),
    "sketch-missing": lambda doc: {**doc, "sketches": doc["sketches"][1:]},
    "pair-node-out-of-range": _first_sketch("pair_nodes", [99]),
    "pair-sim-out-of-range": _first_sketch("pair_sims", [-1]),
    "pair-repeated": _repeat_first_pair,
    "ranks-length": _first_sketch("ranks", []),
    "weight-nan": _first_weight(float("nan")),
    "weight-infinite": _first_weight(float("inf")),
    "weight-negative": _first_weight(-5.0),
    "rank-negative": _first_rank(0, -1.0),
    "rank-infinite": _first_rank(-1, float("inf")),
    "ranks-unsorted": _reverse_first_sketch,
}


@pytest.mark.parametrize("edit", sorted(SKETCH_EDITS))
def test_malformed_sketch_file_exits_2(edit, tmp_path):
    model = tmp_path / "star.model"
    im.save_model(im.families.gen_star(4, dependent=False), model)
    built = tmp_path / "sk.json"
    assert cli.main(["--out", str(tmp_path / "b.json"), "sketch-build", "--model", str(model),
                     "--tau", "2", "--pool-size", "5", "--k", "4",
                     "--sketch-out", str(built)]) == 0
    query = ["--out", str(tmp_path / "q.json"), "sketch-query", "--sketches", str(built),
             "--seeds", "0"]
    assert cli.main(query) == 0
    doc = json.loads(built.read_text())
    assert doc["sketches"][0]["pair_nodes"]
    built.write_text(json.dumps(SKETCH_EDITS[edit](doc)))
    assert cli.main(query) == 2

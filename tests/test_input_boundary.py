"""Fuzz tests of the file boundary: edge-list text and model documents,
and malformed sketch files.

Every input either loads or raises one of the exceptions that ``cli.main``
maps to exit code 2.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import infmax as im
from infmax import cli
from infmax.graph import parse_edge_list

INPUT_ERRORS = (ValueError, KeyError, FileNotFoundError)

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

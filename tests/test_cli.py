import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import infmax as im
from infmax import cli
from infmax.cli import build_parser, main
import scalar_reference


def run_cli(args):
    return main(list(args))


def test_gen_exact_pipeline(tmp_path, capsys):
    model_path = tmp_path / "tree3.model"
    assert run_cli(["gen", "--family", "tree", "--tau", "3",
                    "--model-out", str(model_path),
                    "--out", str(tmp_path / "gen.json")]) == 0
    assert model_path.exists()
    out = tmp_path / "exact.json"
    assert run_cli(["exact", "--model", str(model_path), "--seeds", "0",
                    "--tau", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["command"] == "exact"
    assert report["result"]["influence"] == pytest.approx(4.0)
    assert report["result"]["variance"] == pytest.approx(7.0)
    assert "versions" in report and "master_seed" in report
    # The root's 3-ball covers all 14 edges; a leaf's fires none.
    assert report["result"]["enumeration_size"] == 16384
    assert report["result"]["outcomes_enumerated"] == 16384
    assert run_cli(["exact", "--model", str(model_path), "--seeds", "7",
                    "--tau", "3", "--out", str(out)]) == 0
    leaf = json.loads(out.read_text())["result"]
    assert (leaf["influence"], leaf["enumeration_size"], leaf["outcomes_enumerated"]) == (
        1.0, 16384, 1)


def test_reports_carry_stream_layout(tmp_path):
    out = tmp_path / "gen.json"
    assert run_cli(["gen", "--family", "tree", "--tau", "2",
                    "--model-out", str(tmp_path / "t.model"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["versions"]["stream_layout"] == 4


def test_estimate_report_schema(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "est.json"
    assert run_cli(["estimate", "--model", str(model_path), "--seeds", "0",
                    "--tau", "2", "--eps", "0.5", "--delta", "0.1", "--mode", "moa",
                    "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert set(result) == {"estimate", "config", "pool_averages"}
    assert result["config"]["pool_size"] == 32  # ceil(4 * 2 / 0.25)
    assert len(result["pool_averages"]) == result["config"]["pools"]


def test_maximize_adaptive_report(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "max.json"
    assert run_cli(["maximize", "--model", str(model_path), "--s", "2", "--tau", "2",
                    "--eps", "0.5", "--delta", "0.1", "--method", "adaptive",
                    "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["simulations_used"] > 0
    assert result["validation_simulations"] > 0
    assert len(result["seeds"]) == 2
    rounds = result["rounds"]
    assert rounds[-1]["accepted"]
    assert rounds[-1]["seeds"] == result["seeds"]
    assert sum(r["budget"] for r in rounds) == result["simulations_used"]
    assert sum(r["validation_budget"] for r in rounds) == result["validation_simulations"]


def test_maximize_brute_uses_union_bound_sizing(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "max.json"
    assert run_cli(["maximize", "--model", str(model_path), "--s", "2", "--tau", "2",
                    "--eps", "0.5", "--delta", "0.1", "--method", "brute",
                    "--seed", "4", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    model = im.load_model(model_path)
    config = im.im_oracle_config(model.num_nodes, 2, 2, 0.5, 0.1, im.c_value(model, 2), 4)
    assert result["method"] == "moa-brute"
    assert result["simulations_used"] == config.total_simulations


def test_maximize_greedy_runs_greedy(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "max.json"
    assert run_cli(["maximize", "--model", str(model_path), "--s", "2", "--tau", "2",
                    "--eps", "0.5", "--delta", "0.1", "--method", "greedy",
                    "--seed", "4", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    model = im.load_model(model_path)
    config = im.im_oracle_config(model.num_nodes, 2, 2, 0.5, 0.1, im.c_value(model, 2), 4)
    assert result["method"] == "moa-greedy"
    assert len(result["trace"]) == 2
    assert result["simulations_used"] == config.total_simulations


def test_maximize_methods_report_the_maximize_im_names(tmp_path):
    # --method brute runs what maximize_im runs on a brute-force-sized
    # instance, so both report it under one name.
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "3", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    results = {}
    for method in ("brute", "greedy"):
        out = tmp_path / f"{method}.json"
        assert run_cli(["maximize", "--model", str(model_path), "--s", "2", "--tau", "2",
                        "--eps", "0.25", "--delta", "0.1", "--method", method,
                        "--seed", "7", "--out", str(out)]) == 0
        results[method] = json.loads(out.read_text())["result"]
    assert results["greedy"]["method"] == "moa-greedy"
    direct = im.maximize_im(im.load_model(model_path), 2, 2, 0.25, 0.1, master_seed=7)
    brute = results["brute"]
    assert (brute["method"], tuple(brute["seeds"]), brute["oracle_value"],
            brute["simulations_used"]) == (direct.method, direct.seeds, direct.oracle_value,
                                           direct.simulations_used)
    assert direct.method == "moa-brute"


@pytest.mark.parametrize("count,message", [
    # 6.94 EiB of node weights: numpy refuses the allocation at once.
    ("1000000000000000000", "line 2: no memory for 1000000000000000000 nodes"),
    ("-3", "line 2: negative node count -3"),
])
def test_node_count_header_fails_as_a_usage_error(count, message, tmp_path, capsys):
    (tmp_path / "g.edges").write_text(f"\n#nodes {count}\n0 1 0.5\n")
    model = tmp_path / "g.model"
    model.write_text(json.dumps({"kind": "ic", "graph_path": "g.edges"}))
    assert run_cli(["estimate", "--model", str(model), "--seeds", "0", "--tau", "1",
                    "--pools", "1", "--pool-size", "4"]) == 2
    assert message in capsys.readouterr().err


def test_exit_codes(tmp_path, monkeypatch):
    # unknown subcommand -> usage error
    assert run_cli(["frobnicate"]) == 2
    assert run_cli([]) == 2
    # enumeration budget -> 3
    star = tmp_path / "star.model"
    run_cli(["gen", "--family", "star", "--leaves", "200", "--model-out", str(star),
             "--out", str(tmp_path / "g.json")])
    assert run_cli(["exact", "--model", str(star), "--seeds", "0", "--tau", "1"]) == 3
    # validation error -> 2
    assert run_cli(["exact", "--model", str(star), "--seeds", "oops", "--tau", "1"]) == 2
    assert run_cli(["exact", "--model", str(tmp_path / "missing.model"),
                    "--seeds", "0", "--tau", "1"]) == 2
    # non-finite input -> 2
    bad = tmp_path / "nan.model"
    (tmp_path / "nan.edges").write_text("#nodes 3\n#weight 1 nan\n0 1 nan\n")
    bad.write_text(json.dumps({"kind": "ic", "graph_path": "nan.edges"}))
    assert run_cli(["exact", "--model", str(bad), "--seeds", "0", "--tau", "1"]) == 2
    (tmp_path / "nan.edges").write_text("#nodes 3\n#weight 1 inf\n0 1 0.5\n")
    assert run_cli(["estimate", "--model", str(bad), "--seeds", "0", "--tau", "1",
                    "--pools", "1", "--pool-size", "4"]) == 2
    # self-loops and duplicate edges -> 2
    loops = tmp_path / "loop.model"
    loops.write_text(json.dumps({"kind": "ic", "graph_path": "loop.edges"}))
    (tmp_path / "loop.edges").write_text("#nodes 3\n0 1 0.5\n2 2 0.5\n")
    assert run_cli(["exact", "--model", str(loops), "--seeds", "0", "--tau", "1"]) == 2
    (tmp_path / "loop.edges").write_text("#nodes 3\n0 1 0.5\n1 2 0.5\n0 1 0.3\n")
    assert run_cli(["estimate", "--model", str(loops), "--seeds", "0", "--tau", "1",
                    "--pools", "1", "--pool-size", "4"]) == 2
    # malformed model documents -> 2
    odd = tmp_path / "odd.model"
    for doc in ([], {"kind": "ic", "graph_path": 5},
                {"kind": "mixture", "components": [{"path": "odd.model", "weight": 1.0}]}):
        odd.write_text(json.dumps(doc))
        assert run_cli(["estimate", "--model", str(odd), "--seeds", "0", "--tau", "1",
                        "--pools", "1", "--pool-size", "4"]) == 2
    # negative step limit -> 2
    assert run_cli(["simulate", "--model", str(star), "--seeds", "0", "--tau", "-1",
                    "--num", "4"]) == 2
    # no simulations -> 2, not a mean of nothing
    for num in ("0", "-3"):
        assert run_cli(["simulate", "--model", str(star), "--seeds", "0", "--tau", "1",
                        "--num", num]) == 2
    # fewer than one thread -> 2
    for threads in ("0", "-3"):
        assert run_cli(["--threads", threads, "simulate", "--model", str(star),
                        "--seeds", "0", "--tau", "1", "--num", "4"]) == 2
        assert run_cli(["simulate", "--model", str(star), "--seeds", "0", "--tau", "1",
                        "--num", "4", "--threads", threads]) == 2
    assert run_cli(["sketch-build", "--model", str(star), "--tau", "-2",
                    "--pool-size", "2", "--k", "5",
                    "--sketch-out", str(tmp_path / "sk.json")]) == 2
    # csv is reserved for tabular bench output
    assert run_cli(["--format", "csv", "exact", "--model", str(star),
                    "--seeds", "0", "--tau", "1"]) == 2
    # accuracy and confidence outside (0, 1) -> 2, before any sampling
    tree = tmp_path / "tree.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(tree),
             "--out", str(tmp_path / "g.json")])
    maximize = ["maximize", "--model", str(tree), "--s", "2", "--tau", "2",
                "--out", str(tmp_path / "max.json")]
    for method in ("greedy", "brute", "adaptive"):
        for flag, value in (("--eps", "0"), ("--delta", "0"), ("--eps", "1.5"),
                            ("--eps", "-0.5"), ("--delta", "2"), ("--eps", "nan")):
            assert run_cli(maximize + ["--method", method, flag, value]) == 2
    # the audit's bound scale must be finite and positive -> 2
    audit = ["audit-variance", "--model", str(tree), "--seeds", "0", "--tau", "2",
             "--out", str(tmp_path / "audit.json")]
    for c in ("nan", "inf", "-1", "0"):
        assert run_cli(audit + ["--c", c]) == 2
    assert run_cli(audit + ["--c", "2"]) == 0
    # estimate takes --eps/--delta/--mode or --pools/--pool-size, never both
    # groups, so no report names a flag it ignored -> 2
    report = tmp_path / "est.json"
    estimate = ["estimate", "--model", str(tree), "--seeds", "0", "--tau", "2",
                "--out", str(report)]
    pools = ["--pools", "1", "--pool-size", "10"]
    for extra in (["--eps", "2"], ["--delta", "0.1"], ["--mode", "avg"], ["--mode", "moa"],
                  ["--eps", "0.5", "--delta", "0.1", "--mode", "moa"]):
        assert run_cli(estimate + pools + extra) == 2
        assert run_cli(estimate + extra + pools) == 2
    assert not report.exists()
    assert run_cli(estimate + pools) == 0
    assert json.loads(report.read_text())["parameters"]["mode"] is None
    assert run_cli(estimate + ["--eps", "0.5", "--delta", "0.1"]) == 0
    assert json.loads(report.read_text())["parameters"]["mode"] == "avg"
    # accuracy or confidence so small that the pool layout is not a finite
    # number -> 2, not a traceback
    for tiny in (["--eps", "1e-300", "--delta", "0.1"],
                 ["--eps", "1e-160", "--delta", "0.1"],
                 ["--eps", "0.5", "--delta", "1e-320"],
                 ["--eps", "0.5", "--delta", "1e-320", "--mode", "moa"]):
        assert run_cli(estimate + tiny) == 2
    assert run_cli(maximize + ["--eps", "1e-300", "--delta", "0.1"]) == 2
    # a bad seed budget, or brute force over the subset budget -> 2, before
    # any sampling
    sampled = []
    monkeypatch.setattr(im.estimators, "sample_pool",
                        lambda *args, **kwargs: sampled.append(args))
    wide = tmp_path / "wide.model"
    run_cli(["gen", "--family", "random", "--n", "300", "--m", "1200",
             "--model-out", str(wide), "--out", str(tmp_path / "g.json")])
    maximize = ["maximize", "--model", str(wide), "--tau", "2",
                "--out", str(tmp_path / "max.json")]
    assert run_cli(maximize + ["--method", "brute", "--s", "4"]) == 2
    for method in ("greedy", "brute", "adaptive"):
        for s in ("0", "-2"):
            assert run_cli(maximize + ["--method", method, "--s", s]) == 2
    # C(1100, 550) exceeds the float range, so delta cannot be split over
    # the seed sets -> 2
    huge = tmp_path / "huge.model"
    run_cli(["gen", "--family", "random", "--n", "1100", "--m", "2200",
             "--model-out", str(huge), "--out", str(tmp_path / "g.json")])
    for method in ("greedy", "brute", "adaptive"):
        assert run_cli(["maximize", "--model", str(huge), "--tau", "2", "--s", "550",
                        "--method", method, "--out", str(tmp_path / "max.json")]) == 2
    assert sampled == []
    # --only names criteria that exist, or nothing runs or is written -> 2
    report = tmp_path / "bench.json"
    for only in ("10", "99", "11,10", "abc", "1,,2"):
        assert run_cli(["bench", "--only", only, "--out", str(report)]) == 2
        assert not report.exists()


def test_huge_step_limit_is_a_usage_error(tmp_path, capsys):
    model_path = tmp_path / "tree3.model"
    run_cli(["gen", "--family", "tree", "--tau", "3", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    for command in ("exact", "audit-variance"):
        for tau in ("30000000", "1000000000000"):
            assert run_cli([command, "--model", str(model_path), "--seeds", "0",
                            "--tau", tau]) == 2
            assert "byte step profile" in capsys.readouterr().err


def test_simulations_past_the_stream_layout_are_a_usage_error(tmp_path, capsys):
    # Rejected on the count alone, before a pool is allocated.
    model_path = tmp_path / "tree3.model"
    run_cli(["gen", "--family", "tree", "--tau", "3", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    huge = str(2**33 + 1)
    for argv in (["simulate", "--num", huge],
                 ["estimate", "--pools", "1", "--pool-size", huge],
                 ["rrs-compare", "--num-searches", huge]):
        common = ["--model", str(model_path), "--tau", "2"]
        if argv[0] != "rrs-compare":
            common += ["--seeds", "0"]
        assert run_cli(argv + common) == 2
        assert "simulation index" in capsys.readouterr().err


def test_rrs_compare_rejects_no_searches(tmp_path, monkeypatch):
    # A search count below 1 is a usage error (2) before anything else runs:
    # not the budget error (3) of a model too large to enumerate, and not
    # after both exact enumerations of a small one.
    big, small = tmp_path / "big.model", tmp_path / "small.model"
    for path, n, m in ((big, 30, 80), (small, 6, 8)):
        run_cli(["gen", "--family", "random", "--n", str(n), "--m", str(m),
                 "--model-out", str(path), "--out", str(tmp_path / "g.json")])
    for num in ("0", "-3"):
        assert run_cli(["rrs-compare", "--model", str(big), "--tau", "2",
                        "--num-searches", num]) == 2
    enumerated = []
    monkeypatch.setattr(cli, "exact_values", lambda *args: enumerated.append(args))
    for num in ("0", "-3"):
        assert run_cli(["rrs-compare", "--model", str(small), "--tau", "2",
                        "--num-searches", num]) == 2
    assert enumerated == []


def test_same_command_line_is_byte_identical(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "random", "--n", "10", "--m", "14",
             "--model-out", str(model_path), "--out", str(tmp_path / "g.json")])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(["estimate", "--model", str(model_path), "--seeds", "0,3",
                        "--tau", "2", "--pools", "5", "--pool-size", "9",
                        "--seed", "11", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_threads_do_not_change_output(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "random", "--n", "10", "--m", "14",
             "--model-out", str(model_path), "--out", str(tmp_path / "g.json")])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    # 3 x 1000 simulations span several sampler blocks.
    run_cli(["estimate", "--model", str(model_path), "--seeds", "1", "--tau", "2",
             "--pools", "3", "--pool-size", "1000", "--threads", "1", "--out", str(a)])
    run_cli(["estimate", "--model", str(model_path), "--seeds", "1", "--tau", "2",
             "--pools", "3", "--pool-size", "1000", "--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    assert build_parser() is build_parser()
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "est.json"
    base = ["estimate", "--model", str(model_path), "--seeds", "0", "--tau", "2",
            "--pools", "1", "--pool-size", "4", "--out", str(out)]
    assert run_cli(["--seed", "7", "--threads", "2"] + base) == 0
    assert json.loads(out.read_text())["master_seed"] == 7
    # Flags of one call do not carry over to the next.
    assert run_cli(base) == 0
    assert json.loads(out.read_text())["master_seed"] == 0


def test_sketch_build_and_query_round_trip(tmp_path):
    model_path = tmp_path / "t.model"
    run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    sk = tmp_path / "sk.json"
    assert run_cli(["sketch-build", "--model", str(model_path), "--tau", "2",
                    "--pool-size", "5", "--k", "100", "--rank-seed", "3",
                    "--sketch-out", str(sk), "--out", str(tmp_path / "b.json")]) == 0
    out = tmp_path / "q.json"
    assert run_cli(["sketch-query", "--sketches", str(sk), "--seeds", "0",
                    "--out", str(out)]) == 0
    estimate = json.loads(out.read_text())["result"]["estimate"]
    # lossless at k=100: equals the plain averaging estimate of the same pool
    est_out = tmp_path / "avg.json"
    run_cli(["estimate", "--model", str(model_path), "--seeds", "0", "--tau", "2",
             "--pools", "1", "--pool-size", "5", "--out", str(est_out)])
    assert estimate == json.loads(est_out.read_text())["result"]["estimate"]


def test_sketch_file_answers_queries_as_the_built_set(tmp_path):
    # The file's entries, read back into flat arrays, answer each query as
    # the set built in memory from the same pool does, truncated (k = 8) or
    # lossless (k above the pool's 20 x 40 pairs).
    model = im.families.gen_random_ic(40, 120, weight_range=(0.5, 3.0), seed=1)
    model_path = tmp_path / "w.model"
    im.save_model(model, model_path)
    loaded = im.load_model(model_path)
    live, _ = im.sample_pool(loaded, 3, 20)
    for k in (8, 1000):
        built = tmp_path / f"w{k}.sketches"
        assert run_cli(["--seed", "3", "sketch-build", "--model", str(model_path),
                        "--tau", "2", "--pool-size", "20", "--k", str(k),
                        "--rank-seed", "5", "--sketch-out", str(built),
                        "--out", str(tmp_path / "b.json")]) == 0
        in_memory = im.build_sketches(loaded, live, 2, k, rank_seed=5)
        out = tmp_path / "q.json"
        for seeds in [(0,), (39,), (0, 5), (3, 17, 22), tuple(range(0, 40, 3))]:
            assert run_cli(["sketch-query", "--sketches", str(built), "--seeds",
                            ",".join(map(str, seeds)), "--out", str(out)]) == 0
            estimate = json.loads(out.read_text())["result"]["estimate"]
            assert estimate == im.sketch_query(in_memory, seeds, 20), (k, seeds)


def two_world_sketches(tmp_path, capsys):
    """The two-world mixture's sketch file, its document and a query of it
    that succeeds; captured output is cleared."""
    model, built = tmp_path / "tw.model", tmp_path / "tw.sketches"
    assert run_cli(["gen", "--family", "mixture", "--model-out", str(model),
                    "--out", str(tmp_path / "g.json")]) == 0
    assert run_cli(["sketch-build", "--model", str(model), "--tau", "2", "--pool-size", "20",
                    "--k", "8", "--sketch-out", str(built),
                    "--out", str(tmp_path / "b.json")]) == 0
    query = ["sketch-query", "--sketches", str(built), "--seeds", "0,5",
             "--out", str(tmp_path / "q.json")]
    assert run_cli(query) == 0
    capsys.readouterr()
    return built, json.loads(built.read_text()), query


def test_sketch_query_refuses_numbers_of_the_wrong_json_type(tmp_path, capsys):
    # Pair ids must be JSON integers and ranks and weights JSON numbers: a
    # fraction is not truncated, and a bool or a string is not cast.
    built, doc, query = two_world_sketches(tmp_path, capsys)
    first = doc["sketches"][0]
    assert first["pair_nodes"] and first["pair_sims"]
    edits = {
        "pair_nodes": [0.7, True, "0", 1e20 * 1e20, [0]],
        "pair_sims": [0.7, False, "0", 2 ** 70],
        "ranks": ["0.5", True, None],
    }
    cases = [(key, index, value) for key, values in edits.items()
             for index in (0, -1) for value in values]
    cases += [(None, index, value)
              for index in (0, -1) for value in ("1", True, None, [1.0], 2 ** 1100)]
    for key, index, value in cases:
        edited = json.loads(json.dumps(doc))
        target = edited["sketches"][0][key] if key else edited["node_weights"]
        target[index] = value
        built.write_text(json.dumps(edited))
        assert run_cli(query) == 2, (key, index, value)
        err = capsys.readouterr().err
        assert err.startswith("error: sketch file: ") and "Traceback" not in err, err


def test_sketch_query_checks_tau_rank_seed_and_node_ids(tmp_path, capsys):
    # tau is a JSON integer of at least 0, rank_seed one in [0, 2**64), and
    # sketch v names node v by the JSON integer v.
    built, doc, query = two_world_sketches(tmp_path, capsys)
    last = len(doc["sketches"]) - 1
    cases = [(None, "tau", value) for value in ("x", -5, 2.0, True, None)]
    cases += [(None, "rank_seed", value) for value in ([1], -1, 2 ** 64, 1.0, False, "1")]
    cases += [(v, "node", value) for v, value in
              [(0, "abc"), (0, 7), (0, 0.0), (0, False), (last, 0), (last, None)]]
    for v, key, value in cases:
        edited = json.loads(json.dumps(doc))
        (edited if v is None else edited["sketches"][v])[key] = value
        built.write_text(json.dumps(edited))
        assert run_cli(query) == 2, (v, key, value)
        err = capsys.readouterr().err
        assert err.startswith("error: sketch file: ") and "Traceback" not in err, err
    # The largest rank seed is kept.
    built.write_text(json.dumps(dict(doc, rank_seed=2 ** 64 - 1)))
    assert run_cli(query) == 0


def test_paths_that_cannot_be_read_or_written_are_usage_errors(tmp_path, capsys):
    # A directory stands for any path that cannot be opened: permission
    # bits do not stop a process that runs as root.
    folder = tmp_path / "folder"
    folder.mkdir()
    model, sketches = tmp_path / "t.model", tmp_path / "sk.json"
    assert run_cli(["gen", "--family", "tree", "--tau", "2", "--model-out", str(model),
                    "--out", str(tmp_path / "g.json")]) == 0
    assert run_cli(["sketch-build", "--model", str(model), "--tau", "2", "--pool-size", "5",
                    "--k", "8", "--sketch-out", str(sketches),
                    "--out", str(tmp_path / "b.json")]) == 0
    capsys.readouterr()
    cases = [["gen", "--family", "tree", "--tau", "2", "--model-out", str(folder),
              "--out", str(tmp_path / "g.json")],
             ["gen", "--family", "tree", "--tau", "2", "--out", str(folder)],
             ["exact", "--model", str(folder), "--seeds", "0", "--tau", "1"],
             ["sketch-build", "--model", str(model), "--tau", "2", "--pool-size", "5",
              "--k", "8", "--sketch-out", str(folder)],
             ["sketch-query", "--sketches", str(folder), "--seeds", "0"],
             ["sketch-query", "--sketches", str(sketches), "--seeds", "0",
              "--out", str(folder)]]
    for argv in cases:
        assert run_cli(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (argv, err)


def test_a_report_over_a_longer_file_leaves_exactly_its_bytes(tmp_path):
    # Reports and sketch files are written over the old bytes and then cut
    # to their length, never emptied first.
    model, fresh, sketches = tmp_path / "t.model", tmp_path / "fresh", tmp_path / "sk.json"
    gen = ["gen", "--family", "tree", "--tau", "2", "--model-out", str(model), "--out"]
    build = ["sketch-build", "--model", str(model), "--tau", "2", "--pool-size", "5",
             "--k", "8", "--out", str(tmp_path / "b.json"), "--sketch-out"]
    assert run_cli(gen + [str(fresh)]) == 0
    assert run_cli(build + [str(sketches)]) == 0
    for argv, old in ((gen, fresh), (build, sketches)):
        stale = tmp_path / ("stale-" + old.name)
        stale.write_bytes(b"x" * (3 * len(old.read_bytes())))
        assert run_cli(argv + [str(stale)]) == 0
        assert stale.read_bytes() == old.read_bytes()
        json.loads(stale.read_text())


def test_a_report_written_to_a_pipe_reaches_its_reader(tmp_path):
    # A pipe is no regular file: the report is written and never cut.
    argv = ["gen", "--family", "tree", "--tau", "2", "--model-out", str(tmp_path / "t.model")]
    expect = tmp_path / "r.json"
    assert run_cli(argv + ["--out", str(expect)]) == 0
    proc = subprocess.run([sys.executable, "-m", "infmax"] + argv + ["--out", "/dev/stdout"],
                          capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout == expect.read_bytes()
    fifo, got = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        assert run_cli(argv + ["--out", str(fifo)]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive() and got == [expect.read_bytes()]


def test_a_mixture_that_cannot_be_saved_leaves_no_companion(tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run_cli(["gen", "--family", "mixture", "--model-out", str(folder),
                    "--out", str(tmp_path / "g.json")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder"]


@dataclass
class Leaf:
    value: object
    values: object


@dataclass
class Node:
    leaf: Leaf
    items: object


ODD_TEXT = "\x00\x1f\x7f\"\\/\u00e9\u2028\U0001f600"
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -0.0, 1e-320,
                     2**64, -2**64, "inf", "nan", ODD_TEXT]),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
arrays = st.one_of(st.lists(st.floats(), max_size=4).map(np.array),
                   st.lists(st.integers(-9, 9), max_size=4).map(np.array),
                   st.lists(st.booleans(), max_size=3).map(np.array))
json_inputs = st.recursive(
    st.one_of(scalars, arrays, st.lists(st.floats(), max_size=5)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(0, 9)), inner, max_size=3),
        st.builds(Leaf, inner, inner), st.builds(Node, st.builds(Leaf, inner, inner), inner)),
    max_leaves=10)


@given(obj=json_inputs)
def test_jsonify_matches_the_element_by_element_reference(obj):
    got, want = cli._jsonify(obj), scalar_reference.jsonify(obj)
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2)
    assert json.dumps([got]) == json.dumps([want])


@given(obj=json_inputs)
@example(obj={ODD_TEXT: ["inf", "nan", float("inf"), -0.0, 1e-320, 1e308, 2**70, -2**70,
                         True, False, None, [], {}, [[]], {"": {}}, [0.5, -0.0, 1e-320]]})
def test_report_writer_is_json_dumps_with_indent_2(obj):
    plain = cli._jsonify(obj)
    assert cli._dumps(plain) == json.dumps(plain, indent=2)


def test_report_writer_raises_type_error_on_values_that_are_not_plain():
    # What json.dumps refuses too, and keys other than strings, which
    # _jsonify never leaves.
    for value in (np.int64(1), {1, 2}, b"x", object(), [1.5, np.float32(2)]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._dumps({"result": [value]})
    with pytest.raises(TypeError):
        cli._dumps({"result": {1: 2}})


def test_every_report_is_the_text_of_json_dumps_with_indent_2(tmp_path, monkeypatch):
    reports = []
    dumps = cli._dumps

    def recording(value, *indent):
        text = dumps(value, *indent)
        if not indent:
            reports.append((value, text))
        return text

    monkeypatch.setattr(cli, "_dumps", recording)
    tree, tw, sketches = (str(tmp_path / name) for name in ("t.model", "tw.model", "tw.sk"))
    runs = [
        ["gen", "--family", "tree", "--tau", "3", "--model-out", tree],
        ["gen", "--family", "mixture", "--model-out", tw],
        ["simulate", "--model", tw, "--seeds", "0,5", "--tau", "2", "--num", "70",
         "--emit-values"],
        ["exact", "--model", tree, "--seeds", "0", "--tau", "3"],
        ["estimate", "--model", tw, "--seeds", "0", "--tau", "2", "--eps", "0.5",
         "--delta", "0.1", "--mode", "moa"],
        ["sketch-build", "--model", tw, "--tau", "2", "--pool-size", "20", "--k", "8",
         "--sketch-out", sketches],
        ["sketch-query", "--sketches", sketches, "--seeds", "0,5"],
        ["maximize", "--model", tree, "--s", "2", "--tau", "2", "--method", "brute"],
        ["maximize", "--model", tree, "--s", "2", "--tau", "2", "--method", "greedy"],
        ["audit-variance", "--model", tree, "--seeds", "0", "--tau", "3"],
        ["rrs-compare", "--model", tw, "--tau", "4", "--num-searches", "200"],
        ["bench", "--only", "1,8,9,11"],
    ]
    for i, argv in enumerate(runs):
        out = tmp_path / f"report{i}.json"
        assert run_cli(["--out", str(out)] + argv) == 0, argv
        assert len(reports) == i + 1
        value, text = reports[-1]
        assert value["command"] == argv[0]
        assert text == json.dumps(value, indent=2)
        assert out.read_text() == text + "\n"


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "infmax", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "infmax" in proc.stdout


def test_audit_variance_report(tmp_path):
    model_path = tmp_path / "tree.model"
    run_cli(["gen", "--family", "tree", "--tau", "3", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "audit.json"
    assert run_cli(["audit-variance", "--model", str(model_path), "--seeds", "0",
                    "--tau", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["parameters"]["c"] == 3.0  # c_value of an IC model at tau 3
    result = report["result"]
    assert result["holds"] is True
    assert result["lhs"] == pytest.approx(7.0)
    assert result["influence"] == pytest.approx(4.0)
    assert result["rhs"] == pytest.approx(3.0 * 4.0 * max(4.0, result["opt1"]))


def test_rrs_compare_report(tmp_path):
    model_path = tmp_path / "tw.model"
    run_cli(["gen", "--family", "mixture", "--model-out", str(model_path),
             "--out", str(tmp_path / "g.json")])
    out = tmp_path / "rrs.json"
    assert run_cli(["rrs-compare", "--model", str(model_path), "--tau", "4",
                    "--num-searches", "2000", "--out", str(out)]) == 0
    result = json.loads(out.read_text())["result"]
    assert result["exact"] == pytest.approx(
        [3.0, 2.5, 2.0, 1.5, 1.0, 2.5, 1.0, 1.0, 1.0, 2.0, 1.5, 1.0])
    assert result["true_argmax"] == 0
    assert result["marginal_argmax"] == 5
    assert len(result["marginal_expectation"]) == 12
    assert len(result["full_estimates"]) == len(result["marginal_estimates"]) == 12

import json
import subprocess
import sys

import pytest

import infmax as im
from infmax import cli
from infmax.cli import build_parser, main


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
    assert json.loads(out.read_text())["versions"]["stream_layout"] == 3


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

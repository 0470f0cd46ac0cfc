"""The scripts under ``scripts/``, run in-process on small inputs."""

import csv
import runpy
import sys
from pathlib import Path

import pytest

from infmax.estimators import required_pools

SWEEP = Path(__file__).resolve().parents[1] / "scripts" / "oracle_error_sweep.py"


@pytest.mark.parametrize("argv, budgets", [
    (["--family", "tree", "--depth", "2", "--trials", "3"], [60, 120, 240, 480, 960]),
    (["--family", "polysimu", "--n", "102", "--trials", "2", "--budgets", "60,120"],
     [60, 120]),
], ids=["tree", "polysimu"])
def test_oracle_error_sweep_writes_two_rows_per_budget(argv, budgets, tmp_path,
                                                       monkeypatch):
    out = tmp_path / "sweep.csv"
    main = runpy.run_path(str(SWEEP))["main"]
    monkeypatch.setattr(sys, "argv", [str(SWEEP), *argv, "--out", str(out)])
    assert main() == 0
    with out.open(newline="") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["budget", "layout", "failure_rate"]
        rows = list(reader)
    pools = required_pools(0.1)
    assert [row["layout"] for row in rows] == ["averaging", f"moa-{pools}pools"] * len(budgets)
    assert [int(row["budget"]) for row in rows[::2]] == budgets
    assert [int(row["budget"]) for row in rows[1::2]] == [pools * max(1, b // pools)
                                                          for b in budgets]
    assert all(0.0 <= float(row["failure_rate"]) <= 1.0 for row in rows)

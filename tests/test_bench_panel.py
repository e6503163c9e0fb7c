"""benchmarks/bench_panel.py: the smoke panel runs from a bare checkout,
and a file compared with itself passes the landing rule."""

import json
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_panel.py"
FIELDS = {
    "key",
    "status",
    "objective",
    "first_bound",
    "root_bound",
    "root_gap",
    "root_stop",
    "root_cuts",
    "oracle_lps",
    "kernel_lps",
    "pivots",
    "bc_nodes",
    "cpu_s",
}


def _run(args, cwd):
    # no PYTHONPATH and another working directory: the script finds the
    # package itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPT), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_smoke_panel_and_self_compare(tmp_path):
    out = tmp_path / "panel.json"
    proc = _run(["--smoke", "--repeat", "2", "--out", str(out)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["instances"]
    assert [row["key"].split()[0] for row in rows] == ["lbc", "exact"]
    for row in rows:
        assert set(row) == FIELDS
        assert set(row["root_cuts"]) == {"benders", "lagrangian", "integer_lshaped"}
        assert len(row["cpu_s"]) == 2 and min(row["cpu_s"]) > 0.0
        assert row["kernel_lps"] >= row["oracle_lps"] > 0 and row["pivots"] > 0
        assert row["root_stop"] == "saturated" and row["root_gap"] > 0.0
    lbc, exact = rows
    assert lbc["status"] == "optimal" and lbc["bc_nodes"] >= 1
    assert abs(lbc["objective"] - 4.666666666666667) <= 1e-6
    assert exact["objective"] is None and exact["bc_nodes"] == 0

    proc = _run(["--compare", str(out), str(out)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "paired 2 instances; unpaired: []" in proc.stdout
    assert "FAIL" not in proc.stdout

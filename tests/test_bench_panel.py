"""benchmarks/bench_panel.py: the smoke panel runs from a bare checkout,
its kernel digests repeat from run to run, and a file compared with
itself passes the landing rule."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    "kernel_digest",
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


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """A `--smoke --repeat 2` panel file."""
    out = tmp_path_factory.mktemp("panel") / "panel.json"
    proc = _run(["--smoke", "--repeat", "2", "--out", str(out)], out.parent)
    assert proc.returncode == 0, proc.stderr
    return out


def test_smoke_panel_and_self_compare(smoke, tmp_path):
    rows = json.loads(smoke.read_text())["instances"]
    assert [row["key"].split()[0] for row in rows] == ["lbc", "bbc", "exact"]
    for row in rows:
        assert set(row) == FIELDS
        assert set(row["root_cuts"]) == {"benders", "lagrangian", "integer_lshaped"}
        assert len(row["cpu_s"]) == 2 and min(row["cpu_s"]) > 0.0
        assert row["kernel_lps"] >= row["oracle_lps"] and row["pivots"] > 0
        assert row["root_stop"] == "saturated" and row["root_gap"] > 0.0
        assert re.fullmatch(r"[0-9a-f]{64}", row["kernel_digest"])
    lbc, bbc, exact = rows
    for row in (lbc, bbc):
        assert row["status"] == "optimal" and row["bc_nodes"] >= 1
        assert abs(row["objective"] - 4.666666666666667) <= 1e-6
    assert lbc["oracle_lps"] > 0 and exact["oracle_lps"] > 0
    # the classical root asks no qbar oracle and adds no Lagrangian cut
    assert bbc["oracle_lps"] == 0 and bbc["root_cuts"]["lagrangian"] == 0
    assert exact["objective"] is None and exact["bc_nodes"] == 0

    proc = _run(["--compare", str(smoke), str(smoke)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "paired 3 instances; unpaired: []" in proc.stdout
    assert "kernel bits kept on 3 of 3 instances" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_second_run_computes_the_same_kernel_bits(smoke, tmp_path):
    again = tmp_path / "again.json"
    proc = _run(["--smoke", "--repeat", "1", "--out", str(again)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    digests = [
        [row["kernel_digest"] for row in json.loads(path.read_text())["instances"]]
        for path in (smoke, again)
    ]
    assert digests[0] == digests[1]


def test_moved_digest_is_reported_and_sets_no_exit_code(smoke, tmp_path):
    data = json.loads(smoke.read_text())
    data["instances"][0]["kernel_digest"] = "0" * 64
    moved = tmp_path / "moved.json"
    moved.write_text(json.dumps(data))
    proc = _run(["--compare", str(smoke), str(moved)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[-1] for line in lines[1:4]] == ["moved", "same", "same"]
    assert "kernel bits kept on 2 of 3 instances" in lines
    assert "FAIL" not in proc.stdout

"""Tests of the benchmark itself.

The pinned references are cross-checked against scipy's HiGHS on the
extensive form, traced and untraced calls must agree exactly on the
smoke instances, the tracer must put every binding back, and the
command line must keep the BENCHMARK.json contract.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize as sopt

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run as bench  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from sipcuts import _simplex, benders, driver, lagrangian, model, optbase  # noqa: E402
from sipcuts.model import build_extensive_form  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CASES = [(name, size) for name in workloads.WORKLOADS for size in ("full", "smoke")]


def _highs(inst, integral: bool) -> float:
    prog = build_extensive_form(inst).program
    assert np.all(prog.senses == optbase.GE)
    res = sopt.milp(
        prog.c,
        constraints=sopt.LinearConstraint(prog.A.to_dense(), prog.rhs, np.inf),
        integrality=prog.is_int.astype(int) if integral else None,
        bounds=sopt.Bounds(prog.lb, prog.ub),
    )
    assert res.status == 0, res.message
    return float(res.fun)


@pytest.mark.parametrize("name,size", CASES)
def test_pins_agree_with_highs(name, size):
    wl = workloads.WORKLOADS[name]
    case = getattr(wl, size)
    inst = case.make()
    lp, mip = _highs(inst, False), _highs(inst, True)
    tol = workloads.REL_TOL * max(1.0, abs(mip))
    assert lp - tol <= case.ref.root_bound <= mip + tol
    if case.ref.objective is not None:
        assert abs(case.ref.objective - mip) <= tol
    if wl.path == "bbc":  # classical cuts saturate at the LP bound
        assert abs(case.ref.root_bound - lp) <= tol


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_call_matches_untraced(name):
    wl = workloads.WORKLOADS[name]
    inst = wl.smoke.make()
    plain = workloads.run(wl, inst)
    assert workloads.problems(plain, wl.smoke.ref) == []
    layers = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer.installed():
            traced = workloads.run(wl, inst)
        assert traced.same_result(plain)
        layers.append(tracer.metrics())
    units = spans.layer_metric_units()
    assert set(layers[0]) == set(units)
    counts = [{k: v for k, v in m.items() if units[k] != "s"} for m in layers]
    assert counts[0] == counts[1]
    m = layers[0]
    if wl.path == "bbc":
        assert m["lagrangian.eval_qbar.calls"] == 0
        assert m["driver.bc_node_lp.calls"] >= m["driver.bc.nodes"] > 0
    else:
        assert m["lagrangian.eval_qbar.calls"] > 0
    assert m["_simplex.lp_solves"] == sum(m[f"{s}.lp_solves"] for s in spans.SPANS)
    assert m["lagrangian.separate.calls"] == sum(
        m[f"lagrangian.separate.stop.{r}"] for r in spans.STOPS
    )


def test_tracer_restores_bindings_when_the_block_raises():
    owners = (driver, benders, lagrangian, model, optbase, _simplex, benders.MasterModel)
    before = [dict(vars(o)) for o in owners]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert driver.solve_benders_subproblem is not before[0]["solve_benders_subproblem"]
            raise RuntimeError("inside the traced block")
    for owner, saved in zip(owners, before):
        after = vars(owner)
        assert after.keys() == saved.keys()
        assert all(after[k] is v for k, v in saved.items())


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_line_keeps_the_contract(trace, key):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "sslp-bbc", "--smoke"]
    cmd += ["--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]
    }


def test_benchmark_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)) and len(SPEC["per_layer"]) <= 128


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "sslp-lbc", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_rescales_to_the_reference_speed():
    with speed.SpeedProbe() as probe:
        t0 = time.monotonic()
        time.sleep(0.4)
        t1 = time.monotonic()
    assert probe._proc is None  # stopped and waited for
    assert len([t for t, _ in probe.samples if t0 <= t <= t1]) >= speed.MIN_SAMPLES
    task = probe.task_seconds([(t0, t1)])
    assert task > 0
    assert probe.normalized([(t0, t1)], 2.0) == pytest.approx(2.0 * speed.REF_S / task)
    # an interval with no samples of its own takes its nearest ones
    first = sorted(d for _, d in probe.samples[: speed.MIN_SAMPLES])
    assert probe.task_seconds([(0.0, 0.0)]) == first[len(first) // 2]


def test_compare_refuses_different_kernel_modes(tmp_path):
    entry = {"end_to_end": {"solve_s": {"value": 1.0, "unit": "s"}}}
    paths = []
    for mode in ("numpy", "numba"):
        path = tmp_path / f"{mode}.json"
        path.write_text(json.dumps({"env": {"kernel_mode": mode}, "workloads": {"w": entry}}))
        paths.append(str(path))
    assert bench.compare(paths[0], paths[1]) == 2
    assert bench.compare(paths[0], paths[0]) == 0

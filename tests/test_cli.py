"""Command-line interface: exit codes, key=value output, artifacts."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sipcuts.cli import main
from sipcuts.driver import BoundTrace, TraceRecord
from sipcuts.instances import SslpParams, gen_sslp, to_text, write_instance
from sipcuts.model import INT, toy_instance

from conftest import unbounded_master_instance


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    kv = {}
    for line in out.out.strip().splitlines():
        key, _, value = line.partition("=")
        kv.setdefault(key, []).append(value)
    return code, kv, out.err


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.sip"
    write_instance(toy_instance(), str(path))
    return str(path)


def test_generate_sslp_writes_deterministic_files(tmp_path, capsys):
    out = tmp_path / "inst"
    argv = [
        "generate", "sslp", "--m", "2", "--n", "3", "--scenarios", "2",
        "--count", "2", "--seed", "4", "--out", str(out),
    ]
    code, kv, _ = run_cli(capsys, argv)
    assert code == 0
    assert kv["count"] == ["2"]
    files = kv["file"]
    assert len(files) == 2 and files[0].endswith("sslp1-2-3-2.sip")
    first = [Path(f).read_bytes() for f in files]
    code, kv, _ = run_cli(capsys, argv)
    assert code == 0
    assert [Path(f).read_bytes() for f in kv["file"]] == first


def test_generate_snip_one_file_per_budget(tmp_path, capsys):
    code, kv, _ = run_cli(
        capsys,
        [
            "generate", "snip", "--nodes", "8", "--arcs", "14", "--interdictable", "5",
            "--budgets", "3,6", "--scenarios", "2", "--seed", "9", "--out", str(tmp_path),
        ],
    )
    assert code == 0
    assert kv["count"] == ["2"]
    assert any("b3" in f for f in kv["file"]) and any("b6" in f for f in kv["file"])


def test_generate_bad_params_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["generate", "sslp", "--m", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "error=" in err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_count_below_one_exits_2(tmp_path, capsys, count):
    out = tmp_path / "inst"
    code, kv, err = run_cli(capsys, ["generate", "sslp", "--count", count, "--out", str(out)])
    assert code == 2 and "count" in err
    assert "count" not in kv and not out.exists()


def test_generate_snip_nan_budget_exits_2(tmp_path, capsys):
    out = tmp_path / "inst"
    code, _, err = run_cli(
        capsys,
        [
            "generate", "snip", "--nodes", "8", "--arcs", "14", "--interdictable", "5",
            "--budgets", "nan", "--scenarios", "2", "--out", str(out),
        ],
    )
    assert code == 2
    assert "budget" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["snip", "--scenarios", "0"],
        ["snip", "--budgets", "3,x"],
        ["snip", "--nodes", "8", "--arcs", "40"],
        ["sslp", "--m", "0"],
    ],
)
def test_generate_rejected_parameters_make_no_out_dir(tmp_path, capsys, argv):
    out = tmp_path / "inst"
    code, kv, err = run_cli(capsys, ["generate", *argv, "--out", str(out)])
    assert code == 2 and "error=" in err
    assert "count" not in kv and not out.exists()


def test_root_nan_rhs_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.sip"
    path.write_text(to_text(toy_instance()).replace("\nh 1.0\n", "\nh nan\n", 1))
    code, _, err = run_cli(capsys, ["root", str(path), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "non-finite" in err


@pytest.mark.filterwarnings("error")
def test_root_overflowing_matrix_file_exits_2(tmp_path, capsys):
    # two finite W entries at one position sum to inf
    path = tmp_path / "inf.sip"
    w_block = "\nW\n1 1 2\n0 0 1e308\n0 0 1e308\n"
    path.write_text(to_text(toy_instance()).replace("\nW\n1 1 1\n0 0 1.0\n", w_block, 1))
    code, _, err = run_cli(capsys, ["root", str(path), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert "W has a non-finite entry" in err


@pytest.mark.parametrize(
    "old,new",
    [
        ("\nA\n0 3 0\n", "\nA\n4000000000000 2 0\n"),
        ("\nA\n0 3 0\n", "\nA\n3000000 3000000 0\n"),
        ("\nT\n7 3 ", "\nT\n7 4 "),
    ],
    ids=["A-rows-huge", "A-both-huge", "T-columns"],
)
def test_root_matrix_header_that_misfits_its_vectors_exits_2(tmp_path, capsys, old, new):
    # SSLP(3,2,2): 3 sites, 7 scenario rows and no first-stage row
    text = to_text(gen_sslp(SslpParams(3, 2, 2, seed=1)))
    assert old in text
    path = tmp_path / "bad.sip"
    path.write_text(text.replace(old, new, 1))
    out = tmp_path / "runs"
    code, kv, err = run_cli(capsys, ["root", str(path), "--out", str(out)])
    assert code == 2 and "header says" in err and "Traceback" not in err
    assert not kv and not out.exists()


def test_root_unbounded_master_exits_3_and_writes_the_trace(tmp_path, capsys):
    path = tmp_path / "unbounded.sip"
    write_instance(unbounded_master_instance(), str(path))
    code, kv, err = run_cli(capsys, ["root", str(path), "--out", str(tmp_path / "runs")])
    assert code == 3 and "cut master is unbounded" in err
    assert kv["status"] == ["solver_failure"]
    lines = Path(kv["trace"][0]).read_text().strip().splitlines()
    assert lines == ["time_s,lower_bound,iter,n_benders,n_lagrangian,n_intL"]


@pytest.mark.parametrize("command", ["root", "solve"])
def test_instance_name_with_a_path_exits_2_and_writes_nothing(tmp_path, capsys, command):
    path = tmp_path / "evil.sip"
    path.write_text(to_text(toy_instance()).replace("\nname toy2s\n", "\nname ../escaped\n", 1))
    code, kv, err = run_cli(capsys, [command, str(path), "--out", str(tmp_path / "d" / "out")])
    assert code == 2 and "instance name" in err and not kv
    assert [p.name for p in tmp_path.rglob("*")] == ["evil.sip"]


def test_root_toy_exact_reports_closure(tmp_path, t1_file, capsys):
    code, kv, _ = run_cli(
        capsys,
        ["root", t1_file, "--variant", "exact", "--delta", "0.0", "--no-early-stop",
         "--out", str(tmp_path / "runs")],
    )
    assert code == 0
    assert float(kv["final_bound"][0]) == pytest.approx(1.0, abs=1e-9)
    assert float(kv["baseline_lp"][0]) == pytest.approx(1.0, abs=1e-9)
    assert float(kv["gap_closed"][0]) == pytest.approx(0.0, abs=1e-9)
    assert kv["stop"] == ["saturated"]
    trace = kv["trace"][0]
    lines = Path(trace).read_text().strip().splitlines()
    assert lines[0] == "time_s,lower_bound,iter,n_benders,n_lagrangian,n_intL"
    assert len(lines) >= 2


def test_root_output_is_key_value(tmp_path, t1_file, capsys):
    main(["root", t1_file, "--variant", "benders_only", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert re.fullmatch(r"[a-z_]+=\S.*", line), line


def test_root_prints_separation_stops(tmp_path, t1_file, capsys):
    argv = ["root", t1_file, "--out", str(tmp_path), "--variant"]
    _, kv, _ = run_cli(capsys, argv + ["benders_only"])
    assert kv["sep_stops"] == ["none"]
    _, kv, _ = run_cli(capsys, argv + ["exact"])
    counts = dict(item.split(":") for item in kv["sep_stops"][0].split(","))
    assert counts and all(int(v) > 0 for v in counts.values())
    assert set(counts) <= {"delta", "no_violation", "stalled", "budget", "pi0_small"}


def test_root_time_limit_exits_4(tmp_path, t1_file, capsys):
    code, kv, _ = run_cli(
        capsys,
        ["root", t1_file, "--variant", "exact", "--time-limit", "0.0", "--out", str(tmp_path)],
    )
    assert code == 4
    assert kv["stop"] == ["time_limit"]
    assert math.isfinite(float(kv["final_bound"][0]))


def test_root_baseline_failure_still_writes_the_trace(tmp_path, t1_file, capsys, monkeypatch):
    from sipcuts import cli
    from sipcuts.optbase import KernelError

    def failing(prog):
        raise KernelError("simplex reported numerical trouble")

    monkeypatch.setattr(cli, "solve_lp", failing)
    code, kv, err = run_cli(
        capsys, ["root", t1_file, "--variant", "benders_only", "--out", str(tmp_path)]
    )
    assert code == 3 and "error=" in err
    assert kv["status"] == ["solver_failure"]
    lines = Path(kv["trace"][0]).read_text().strip().splitlines()
    assert lines[0] == "time_s,lower_bound,iter,n_benders,n_lagrangian,n_intL"
    assert len(lines) >= 2, "the root loop's records are kept"


def test_root_unknown_variant_usage_error(t1_file):
    with pytest.raises(SystemExit) as exc:
        main(["root", t1_file, "--variant", "leveled"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["root", "solve"])
def test_workers_flag_is_a_usage_error(tmp_path, t1_file, command):
    # scenarios always run in order, so the CLI offers no worker count
    with pytest.raises(SystemExit) as exc:
        main([command, t1_file, "--workers", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_root_missing_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["root", str(tmp_path / "nope.sip")])
    assert code == 2 and "error=" in err


def test_root_nan_alpha_exits_2(tmp_path, t1_file, capsys):
    code, _, err = run_cli(capsys, ["root", t1_file, "--alpha", "nan", "--out", str(tmp_path)])
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("command", ["root", "solve"])
def test_rejected_run_flags_make_no_out_dir(tmp_path, t1_file, capsys, command):
    out = tmp_path / "runs"
    code, kv, err = run_cli(capsys, [command, t1_file, "--alpha", "nan", "--out", str(out)])
    assert code == 2 and "alpha" in err
    assert not kv and not out.exists()


@pytest.mark.parametrize("command", ["root", "solve"])
def test_infinite_alpha_is_a_usage_error(tmp_path, capsys, command):
    code, kv, _ = run_cli(
        capsys,
        ["generate", "sslp", "--m", "3", "--n", "5", "--scenarios", "3", "--seed", "7",
         "--out", str(tmp_path)],
    )
    assert code == 0
    out = tmp_path / "runs"
    argv = [command, kv["file"][0], "--alpha", "inf", "--out", str(out)]
    if command == "root":
        argv += ["--variant", "exact"]
    code, kv, err = run_cli(capsys, argv)
    assert code == 2 and "alpha" in err
    assert not kv and not out.exists(), "no trace file"


def test_solve_toy_both_modes(tmp_path, t1_file, capsys):
    for mode in ("lbc", "bbc"):
        code, kv, _ = run_cli(
            capsys, ["solve", t1_file, "--mode", mode, "--out", str(tmp_path)]
        )
        assert code == 0
        assert kv["status"] == ["optimal"]
        assert float(kv["objective"][0]) == pytest.approx(1.0, abs=1e-9)
        assert float(kv["gap"][0]) == 0.0
        assert int(kv["nodes"][0]) >= 1
        assert float(kv["root_time_s"][0]) >= 0.0
        assert float(kv["bc_time_s"][0]) >= 0.0


def test_solve_time_limit_exits_4(tmp_path, t1_file, capsys):
    code, kv, _ = run_cli(
        capsys,
        ["solve", t1_file, "--mode", "bbc", "--time-limit", "0.0", "--out", str(tmp_path)],
    )
    assert code == 4
    assert kv["status"] == ["limit"]
    assert float(kv["gap"][0]) > 1e-6 or kv["gap"] == ["inf"]
    # B&C got no time, but the root master's bound is still proven
    bound, root_bound = float(kv["bound"][0]), float(kv["root_bound"][0])
    assert math.isfinite(bound) and bound >= root_bound


def test_solve_non_binary_first_stage_exits_2_before_any_kernel_call(
    tmp_path, capsys, monkeypatch
):
    from sipcuts import optbase

    path = tmp_path / "toyint.sip"
    toyint = replace(toy_instance(), vtype=np.array([INT], dtype=np.int8), ub=np.array([2.0]))
    write_instance(toyint, str(path))
    calls = []
    solve = optbase._solve_dense
    monkeypatch.setattr(optbase, "_solve_dense", lambda *a, **k: calls.append(1) or solve(*a, **k))
    out = tmp_path / "runs"
    code, kv, err = run_cli(capsys, ["solve", str(path), "--mode", "bbc", "--out", str(out)])
    assert code == 2 and "error=" in err and "binary" in err
    assert not kv and not out.exists(), "no trace file"
    assert not calls


def test_solve_node_limit_below_one_exits_2(tmp_path, t1_file, capsys):
    code, kv, err = run_cli(
        capsys,
        ["solve", t1_file, "--mode", "bbc", "--node-limit", "0", "--out", str(tmp_path)],
    )
    assert code == 2 and "error=" in err
    assert "status" not in kv


def _write_trace(path, baseline, points):
    tr = BoundTrace(baseline=baseline)
    tr.records = [TraceRecord(t, b, i, 0, 0, 0) for i, (t, b) in enumerate(points)]
    tr.to_csv(str(path))


def test_profile_from_manifest(tmp_path, capsys):
    _write_trace(tmp_path / "fast.csv", 0.0, [(0.5, 4.0), (1.0, 10.0)])
    _write_trace(tmp_path / "slow.csv", 0.0, [(1.0, 5.0), (2.0, 7.5)])
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "method,instance,path,baseline\n"
        f"fast,p1,{tmp_path / 'fast.csv'},0.0\n"
        f"slow,p1,{tmp_path / 'slow.csv'},0.0\n"
    )
    code, kv, _ = run_cli(
        capsys,
        ["profile", str(manifest), "--gamma", "0.75,0.95", "--out", str(tmp_path / "prof")],
    )
    assert code == 0
    assert len(kv["profile"]) == 2
    lines = Path(kv["profile"][0]).read_text().strip().splitlines()
    assert lines[0] == "time_s,fast,slow"
    # fast reaches 7.5 (=0.75*10) at t=1, slow at t=2
    rows = [ln.split(",") for ln in lines[1:]]
    by_time = {float(r[0]): (float(r[1]), float(r[2])) for r in rows}
    assert by_time[1.0] == (1.0, 0.0)
    assert by_time[2.0] == (1.0, 1.0)


def test_profile_mismatched_instances_exits_2(tmp_path, capsys):
    _write_trace(tmp_path / "a.csv", 0.0, [(1.0, 1.0)])
    _write_trace(tmp_path / "b.csv", 0.0, [(1.0, 1.0)])
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "method,instance,path,baseline\n"
        f"a,p1,{tmp_path / 'a.csv'},0.0\n"
        f"b,OTHER,{tmp_path / 'b.csv'},0.0\n"
    )
    code, _, err = run_cli(capsys, ["profile", str(manifest), "--out", str(tmp_path)])
    assert code == 2
    assert "OTHER" in err and "p1" in err


def test_profile_empty_manifest_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("method,instance,path,baseline\n")
    code, _, err = run_cli(capsys, ["profile", str(manifest), "--out", str(tmp_path)])
    assert code == 2 and "empty" in err


def test_profile_bad_gamma_exits_2(tmp_path, capsys):
    _write_trace(tmp_path / "a.csv", 0.0, [(1.0, 1.0)])
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"method,instance,path,baseline\na,p1,{tmp_path / 'a.csv'},0.0\n")
    code, _, err = run_cli(
        capsys, ["profile", str(manifest), "--gamma", "0", "--out", str(tmp_path)]
    )
    assert code == 2


def test_profile_empty_gamma_list_exits_2(tmp_path, capsys):
    _write_trace(tmp_path / "a.csv", 0.0, [(1.0, 1.0)])
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"method,instance,path,baseline\na,p1,{tmp_path / 'a.csv'},0.0\n")
    out = tmp_path / "prof"
    code, kv, err = run_cli(capsys, ["profile", str(manifest), "--gamma", ",", "--out", str(out)])
    assert code == 2 and "gamma" in err
    assert "profile" not in kv and not out.exists()


def test_profile_duplicate_manifest_row_exits_2(tmp_path, capsys):
    _write_trace(tmp_path / "a.csv", 0.0, [(1.0, 1.0)])
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "method,instance,path,baseline\n"
        f"a,p1,{tmp_path / 'a.csv'},-100.0\n"
        f"a,p1,{tmp_path / 'a.csv'},-50.0\n"
    )
    out = tmp_path / "prof"
    code, kv, err = run_cli(capsys, ["profile", str(manifest), "--out", str(out)])
    assert code == 2 and "row 2" in err and "'p1'" in err
    assert "profile" not in kv and not out.exists()


def test_profile_trace_without_trace_columns_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,bound\n1.0,2.0\n")
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"method,instance,path,baseline\na,p1,{bad},0.0\n")
    code, _, err = run_cli(capsys, ["profile", str(manifest), "--out", str(tmp_path)])
    assert code == 2
    assert "lower_bound" in err and "Traceback" not in err


def test_profile_manifest_row_with_missing_fields_exits_2(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text("method,instance,path,baseline\na,p1\n")
    code, _, err = run_cli(capsys, ["profile", str(manifest), "--out", str(tmp_path)])
    assert code == 2
    assert "baseline" in err and "path" in err


@pytest.mark.parametrize(
    "gamma,baseline",
    [("0", "0.0"), ("1.5", "0.0"), ("0.5", "nan"), ("0.5", "inf"), ("0.5", "-inf")],
)
def test_profile_rejected_gamma_or_baseline_makes_no_out_dir(tmp_path, capsys, gamma, baseline):
    _write_trace(tmp_path / "a.csv", 0.0, [(1.0, 1.0)])
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"method,instance,path,baseline\na,p1,{tmp_path / 'a.csv'},{baseline}\n")
    out = tmp_path / "prof"
    code, kv, err = run_cli(capsys, ["profile", str(manifest), "--gamma", gamma, "--out", str(out)])
    assert code == 2 and "error=" in err
    assert "profile" not in kv and not out.exists()


@pytest.mark.parametrize("points", [[], [(1.0, math.nan)]])
def test_profile_trace_without_a_finite_bound_exits_2(tmp_path, capsys, points):
    _write_trace(tmp_path / "a.csv", 0.0, [(1.0, 1.0)])
    _write_trace(tmp_path / "b.csv", 0.0, points)
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "method,instance,path,baseline\n"
        f"a,p1,{tmp_path / 'a.csv'},0.0\n"
        f"b,p1,{tmp_path / 'b.csv'},0.0\n"
    )
    out = tmp_path / "prof"
    code, kv, err = run_cli(capsys, ["profile", str(manifest), "--out", str(out)])
    assert code == 2 and "method 'b' for 'p1'" in err
    assert "profile" not in kv and not out.exists()


#: README session keys compared as numbers (within 1e-6), and keys whose
#: values vary from run to run
README_NUMBERS = ("final_bound", "baseline_lp", "gap_closed", "objective")
README_UNCHECKED = ("wall_time_s",)


def _readme_session():
    """The generate, root and solve commands of README's command-line
    section, each with the key=value lines README shows under it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    session = []
    for line in block.splitlines():
        if line.startswith("sipcuts "):
            session.append((line.split()[1:], {}))
        elif line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            session[-1][1].setdefault(key, []).append(value)
    return [(argv, shown) for argv, shown in session if argv[0] in ("generate", "root", "solve")]


def test_readme_session_prints_what_readme_shows(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    session = _readme_session()
    assert [argv[0] for argv, _ in session] == ["generate", "root", "solve"]
    shown_keys = {key for _, shown in session for key in shown}
    assert {"final_bound", "baseline_lp", "stop", "n_benders", "n_lagrangian"} <= shown_keys
    assert {"status", "objective", "nodes"} <= shown_keys
    for argv, shown in session:
        code, kv, err = run_cli(capsys, argv)
        assert code == 0, err
        for key, values in shown.items():
            if key in README_UNCHECKED:
                continue
            if key in README_NUMBERS:
                got = [float(v) for v in kv[key]]
                assert got == pytest.approx([float(v) for v in values], abs=1e-6), key
            else:
                assert kv[key] == values, key

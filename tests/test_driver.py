"""Root cutting-plane loop, branch-and-cut, and gap profiles."""

import math
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from sipcuts import driver
from sipcuts.benders import MasterModel
from sipcuts.driver import (
    BoundTrace,
    TraceRecord,
    VariantConfig,
    gap_closed_profile,
    profile_to_csv,
    run_branch_and_cut,
    run_root_loop,
    solve_bbc,
    solve_lbc,
)
from sipcuts.dualdecomp import maximize_dual
from sipcuts.instances import SnipParams, SslpParams, gen_snip, gen_sslp
from sipcuts.model import (
    INT,
    InstanceError,
    Scenario,
    SipInstance,
    build_extensive_form,
    toy_instance,
)
from sipcuts.optbase import solve_lp

from _oracles import linprog_reference, milp_reference, z_ip_enum
from conftest import make_tiny, unbounded_master_instance


def _single_scenario(inst: SipInstance) -> SipInstance:
    s0 = inst.scenarios[0]
    return SipInstance(
        name="one",
        c=inst.c,
        A=inst.A,
        b=inst.b,
        vtype=inst.vtype,
        lb=inst.lb,
        ub=inst.ub,
        scenarios=[
            Scenario(prob=1.0, q=s0.q, W=s0.W, h=s0.h, T=s0.T, vtype=s0.vtype, lb=s0.lb, ub=s0.ub)
        ],
    )


def _extensive_lp(inst) -> float:
    return solve_lp(build_extensive_form(inst).program).objective


# ------------------------------------------------------------- config/trace


def test_variant_config_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        VariantConfig(variant="leveled")
    with pytest.raises(ValueError):
        VariantConfig(delta=1.0)
    with pytest.raises(ValueError):
        VariantConfig(k=0)
    with pytest.raises(ValueError):
        VariantConfig(alpha=0.0)
    with pytest.raises(ValueError, match="alpha"):
        VariantConfig(alpha=math.nan)
    with pytest.raises(ValueError, match="alpha"):
        VariantConfig(alpha=math.inf)
    with pytest.raises(ValueError, match="time limit"):
        VariantConfig(time_limit=math.nan)
    with pytest.raises(ValueError, match="time limit"):
        VariantConfig(time_limit=-1.0)
    with pytest.raises(ValueError):
        VariantConfig(workers=0)


def test_trace_monotone_and_csv(tmp_path):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    _, trace = run_root_loop(inst, VariantConfig(variant="benders_only"))
    bounds = [r.lower_bound for r in trace.records]
    times = [r.time_s for r in trace.records]
    assert all(b2 >= b1 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time_s,lower_bound,iter,n_benders,n_lagrangian,n_intL"
    assert len(lines) == len(trace.records) + 1
    # round-trip of the bound column
    assert [float(ln.split(",")[1]) for ln in lines[1:]] == bounds
    back = BoundTrace.from_csv(str(path), baseline=1.5)
    assert back.baseline == 1.5 and back.records == trace.records


def test_trace_times_count_the_theta_bounds(monkeypatch):
    # the trace clock starts with the call, before the per-scenario bound LPs
    real = driver.compute_theta_lower_bound

    def slow(inst, s):
        time.sleep(0.05)
        return real(inst, s)

    monkeypatch.setattr(driver, "compute_theta_lower_bound", slow)
    inst = toy_instance()
    _, trace = run_root_loop(inst, VariantConfig(variant="benders_only"))
    assert trace.records[0].time_s >= 0.05 * inst.nscen


# ------------------------------------------------------------- root loop


@pytest.mark.parametrize(
    "variant", ["benders_only", "strengthened", "exact", "span_coef", "span_weight", "span_mip"]
)
def test_root_toy_all_variants_close(variant):
    master, trace = run_root_loop(
        toy_instance(), VariantConfig(variant=variant, delta=0.0, k=5, early_stop=False)
    )
    assert trace.final_bound == pytest.approx(1.0, abs=1e-9)
    assert master.counts() == {"benders": 2}
    assert trace.stop_reason == "saturated"


def test_root_benders_only_reaches_extensive_lp():
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    _, trace = run_root_loop(inst, VariantConfig(variant="benders_only"))
    zlp = _extensive_lp(inst)
    status, ref = linprog_reference(build_extensive_form(inst).program)
    assert status == "optimal" and zlp == pytest.approx(ref, abs=1e-7)
    assert trace.final_bound == pytest.approx(zlp, abs=1e-6)


@pytest.mark.parametrize("seed", range(4))
def test_root_exact_closes_to_dual_bound(seed):
    inst = make_tiny(seed)
    master, trace = run_root_loop(
        inst, VariantConfig(variant="exact", delta=0.0, early_stop=False)
    )
    dd = maximize_dual(inst)
    assert dd.converged
    assert trace.final_bound == pytest.approx(dd.value, rel=1e-6, abs=1e-6)
    # sandwich: every recorded bound stays below the dual bound,
    # and the terminal bound is at least the extensive LP bound
    for rec in trace.records:
        assert rec.lower_bound <= dd.value + 1e-6 * (1 + abs(dd.value))
    assert trace.final_bound >= _extensive_lp(inst) - 1e-7
    assert dd.value <= z_ip_enum(inst) + 1e-7


@pytest.mark.parametrize("seed,expect", [(0, 18.0), (1, 33.0), (4, 6.0)])
def test_root_single_scenario_closes_to_integer_optimum(seed, expect):
    one = _single_scenario(make_tiny(seed))
    zs = z_ip_enum(one)
    assert zs == pytest.approx(expect, abs=1e-9)
    _, trace = run_root_loop(one, VariantConfig(variant="exact", delta=0.0, early_stop=False))
    assert trace.final_bound == pytest.approx(zs, rel=1e-6, abs=1e-6)


def test_root_variant_ladder_on_gap_instance():
    # seed 3 has z_LP = 1027/33 < z_IP = 33; the span variants close the
    # gap fully, rhs strengthening only partly
    inst = make_tiny(3)
    zlp = _extensive_lp(inst)
    assert zlp == pytest.approx(1027.0 / 33.0, abs=1e-7)
    _, tb = run_root_loop(inst, VariantConfig(variant="benders_only"))
    _, ts = run_root_loop(inst, VariantConfig(variant="strengthened", early_stop=False))
    _, tc = run_root_loop(inst, VariantConfig(variant="span_coef", k=5, early_stop=False))
    _, tw = run_root_loop(inst, VariantConfig(variant="span_weight", k=5, early_stop=False))
    assert tb.final_bound == pytest.approx(zlp, abs=1e-6)
    assert ts.final_bound == pytest.approx(32.342424242424, abs=1e-6)
    assert tc.final_bound == pytest.approx(33.0, abs=1e-6)
    assert tw.final_bound == pytest.approx(33.0, abs=1e-6)
    assert z_ip_enum(inst) == pytest.approx(33.0, abs=1e-9)


def test_root_span_never_below_classical():
    # restricted spans cannot always improve (seed 1 stalls at z_LP) but
    # never fall below the classical bound
    inst = make_tiny(1)
    _, tb = run_root_loop(inst, VariantConfig(variant="benders_only"))
    for variant in ("span_coef", "span_weight", "span_mip"):
        _, tv = run_root_loop(inst, VariantConfig(variant=variant, k=5, early_stop=False))
        assert tv.final_bound >= tb.final_bound - 1e-9
    _, te = run_root_loop(inst, VariantConfig(variant="exact", delta=0.0, early_stop=False))
    assert te.final_bound == pytest.approx(20.5, abs=1e-6)  # full space closes to z_D


def test_root_time_limit_zero_stops_immediately():
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    _, trace = run_root_loop(inst, VariantConfig(variant="exact", time_limit=0.0))
    assert trace.stop_reason == "time_limit"
    assert len(trace.records) == 1


@pytest.mark.parametrize(
    "inst,limit",
    [
        (gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3)), 5.5),
        (gen_sslp(SslpParams(3, 5, 3, seed=7)), 7.5),
    ],
    ids=["snip", "sslp"],
)
def test_root_deadline_is_checked_between_scenarios(monkeypatch, inst, limit):
    # a fake clock that advances one second per scenario separation
    now = [0.0]
    starts = []

    def ticking(fn):
        def separate(*args):
            starts.append(now[0])
            now[0] += 1.0
            return fn(*args)

        return separate

    monkeypatch.setattr(driver, "time", SimpleNamespace(monotonic=lambda: now[0]))
    monkeypatch.setattr(driver, "separate_classical", ticking(driver.separate_classical))
    monkeypatch.setattr(driver, "_multiplier_cut", ticking(driver._multiplier_cut))
    master, trace = run_root_loop(
        inst, VariantConfig(variant="exact", time_limit=limit, early_stop=False)
    )
    assert trace.stop_reason == "time_limit"
    assert max(starts) < limit
    last, counts = trace.records[-1], master.counts()
    assert (last.n_benders, last.n_lagrangian, last.n_intl) == (
        counts.get("benders", 0),
        counts.get("lagrangian", 0),
        counts.get("integer_lshaped", 0),
    )


@pytest.mark.parametrize(
    "inst,variant",
    [
        (gen_sslp(SslpParams(3, 5, 3, seed=7)), "span_mip"),
        (gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3)), "exact"),
    ],
    ids=["sslp-span_mip", "snip-exact"],
)
def test_root_loop_separates_no_point_twice(monkeypatch, inst, variant):
    # the multiplier block runs at the point where the classical cuts ran dry
    seen = []
    real = driver.separate_classical

    def recording(inst, s, x, theta_s):
        seen.append((s, np.asarray(x).tobytes(), float(theta_s)))
        return real(inst, s, x, theta_s)

    monkeypatch.setattr(driver, "separate_classical", recording)
    _, trace = run_root_loop(inst, VariantConfig(variant=variant, early_stop=False))
    assert trace.stop_reason == "saturated"
    assert len(seen) == len(set(seen))


def test_root_unbounded_master_raises_and_keeps_the_trace():
    trace = BoundTrace()
    with pytest.raises(InstanceError, match="cut master is unbounded; cannot run the root loop"):
        run_root_loop(unbounded_master_instance(), VariantConfig(), trace=trace)
    assert trace.records == []


def test_root_early_stop_triggers_and_costs_bound(monkeypatch):
    inst = gen_sslp(SslpParams(5, 10, 5, seed=1))
    monkeypatch.setattr(driver, "EARLY_WINDOW", 1)
    monkeypatch.setattr(driver, "EARLY_FRACTION", 0.99)
    _, t_fast = run_root_loop(inst, VariantConfig(variant="span_weight", k=3, early_stop=True))
    _, t_full = run_root_loop(inst, VariantConfig(variant="span_weight", k=3, early_stop=False))
    assert t_fast.stop_reason == "early_stop"
    assert t_full.stop_reason == "saturated"
    assert len(t_fast.records) < len(t_full.records)
    assert t_fast.final_bound <= t_full.final_bound + 1e-9


def test_root_worker_count_does_not_change_output():
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))

    def signature(workers):
        master, trace = run_root_loop(
            inst, VariantConfig(variant="span_mip", delta=0.5, k=20, workers=workers)
        )
        cuts = tuple(
            (c.family, c.scenario, c.coef_x.tobytes(), c.coef_theta, c.rhs) for c in master.cuts
        )
        return cuts, tuple(r.lower_bound for r in trace.records)

    assert signature(1) == signature(4)


def test_root_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("scenario work started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    _, trace = run_root_loop(inst, VariantConfig(variant="span_mip", workers=4))
    assert trace.stop_reason


# ------------------------------------------------------------- B&C


def test_bc_toy_both_modes():
    res, _ = solve_bbc(toy_instance())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.node_count == 1
    assert res.gap == 0.0
    assert np.array_equal(res.x, [1.0])
    res, _ = solve_lbc(toy_instance(), delta=0.0, k=5)
    assert res.status == "optimal" and res.objective == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_bc_matches_enumeration(seed):
    inst = make_tiny(seed)
    zs = z_ip_enum(inst)
    rb, _ = solve_bbc(inst)
    rl, _ = solve_lbc(inst, delta=0.5, k=5)
    for res in (rb, rl):
        assert res.status == "optimal"
        assert res.objective == pytest.approx(zs, rel=1e-6, abs=1e-6)
        assert res.gap <= 1e-6
        assert res.bound <= res.objective + 1e-9


def test_bc_desk_sslp_modes_agree_and_lagrangian_root_saves_nodes():
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    rb, _ = solve_bbc(inst)
    rl, _ = solve_lbc(inst, delta=0.5, k=20)
    assert rb.objective == pytest.approx(14.0 / 3.0, rel=1e-9)
    assert rl.objective == pytest.approx(14.0 / 3.0, rel=1e-9)
    assert rl.node_count <= rb.node_count
    assert rl.node_count == 1  # the multiplier root closes the gap here


def test_qbar_oracle_lps_warm_start_to_few_pivots(monkeypatch):
    from sipcuts import lagrangian, optbase

    inside = []
    lps, pivots = [], []
    kernel, oracle = optbase._solve_dense, lagrangian.eval_qbar

    def counting(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if inside:
            lps.append(1)
            pivots.append(out[5])
        return out

    def marked(*args, **kwargs):
        inside.append(1)
        try:
            return oracle(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(optbase, "_solve_dense", counting)
    monkeypatch.setattr(lagrangian, "eval_qbar", marked)
    res, _ = solve_lbc(gen_sslp(SslpParams(3, 5, 3, seed=7)))
    assert res.status == "optimal" and len(lps) > 50
    assert sum(pivots) / len(lps) <= 8.0


def test_bc_resolve_after_lazy_cuts_starts_from_the_node_basis(monkeypatch):
    calls = []
    solve = MasterModel.solve

    def recording(self, lb=None, ub=None, warm=None, rows=None):
        out = solve(self, lb, ub, warm, rows)
        if lb is not None:  # a branch-and-cut node
            calls.append((lb.copy(), ub.copy(), warm, rows, len(self.cuts), out[0]))
        return out

    monkeypatch.setattr(MasterModel, "solve", recording)
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    res, _ = solve_bbc(inst)
    assert res.status == "optimal" and res.node_count > 1
    resolves = 0
    for prev, call in zip(calls, calls[1:]):
        lb, ub, warm, rows, pool, _ = call
        plb, pub, _, prows, ppool, out = prev
        if not (np.array_equal(lb, plb) and np.array_equal(ub, pub) and pool > ppool):
            continue
        # lazy cuts were added at this node: it is solved again over its
        # tight rows and the new cuts, from its own final basis
        tight, basis = driver._tight_start(inst.A.shape[0], prows, out.basis)
        assert np.array_equal(rows, np.concatenate([tight, np.arange(ppool, pool)]))
        assert all(np.array_equal(a, b) for a, b in zip(warm, basis))
        assert rows.size < pool
        resolves += 1
    assert resolves, "no node was solved again after lazy cuts"


def test_bc_root_starts_from_the_tight_rows_of_the_root_loop_basis(monkeypatch):
    from sipcuts import optbase

    roots, lps = [], []
    kernel, bc = optbase._solve_dense, driver.run_branch_and_cut

    def recording(c, A, *args, warm=None, **kwargs):
        out = kernel(c, A, *args, warm=warm, **kwargs)
        if roots:
            lps.append((A.shape[0], warm, out[5]))
        return out

    def marked(inst, root, *args, **kwargs):
        roots.append((root.basis, len(root.cuts)))
        return bc(inst, root, *args, **kwargs)

    monkeypatch.setattr(optbase, "_solve_dense", recording)
    monkeypatch.setattr(driver, "run_branch_and_cut", marked)
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    res, _ = solve_bbc(inst)
    assert res.status == "optimal" and len(lps) > 1
    (basis, ncuts), = roots
    m0 = inst.A.shape[0]
    assert basis[0].size == m0 + ncuts
    tight, start = driver._tight_start(m0, np.arange(ncuts), basis)
    nz = inst.nx + inst.nscen
    assert np.array_equal(tight, np.nonzero(basis[1][nz + m0 :] != 0)[0])
    assert 0 < tight.size < ncuts
    nrows, warm, iterations = lps[0]  # the B&C root LP
    assert nrows == m0 + tight.size
    assert all(np.array_equal(a, b) for a, b in zip(warm, start))
    assert iterations <= 1, "no pivot: the one pass is the pricing that proves the start optimal"


@pytest.mark.parametrize(
    "inst",
    [gen_sslp(SslpParams(3, 5, 3, seed=7)), gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3))],
    ids=["sslp", "snip"],
)
def test_bc_node_bounds_are_those_of_the_lp_over_the_whole_pool(monkeypatch, inst):
    """A node LP carries a subset of the pooled cuts; its bound must be
    the LP's over all of them, and a subset LP may be infeasible only
    when the whole one is."""
    from sipcuts import optbase

    roots, checked = [], {optbase.OPTIMAL: 0, optbase.INFEASIBLE: 0}
    bc, search = driver.run_branch_and_cut, optbase.best_bound_search

    def marked(inst, root, *args, **kwargs):
        roots.append(root)
        return bc(inst, root, *args, **kwargs)

    def checking(lb, ub, int_idx, relax, *args, **kwargs):
        def relax_and_check(nlb, nub, warm):
            got = relax(nlb, nub, warm)
            full = solve_lp(roots[0].build_program(nlb, nub))
            assert full.status == got[0]
            if got[0] == optbase.OPTIMAL:
                assert abs(got[1] - full.objective) <= 1e-9 * (1.0 + abs(full.objective))
            checked[got[0]] += 1
            return got

        if relax.__qualname__.startswith("run_branch_and_cut"):
            return search(lb, ub, int_idx, relax_and_check, *args, **kwargs)
        return search(lb, ub, int_idx, relax, *args, **kwargs)  # a recourse MIP

    monkeypatch.setattr(driver, "run_branch_and_cut", marked)
    monkeypatch.setattr(optbase, "best_bound_search", checking)
    res, _ = solve_bbc(inst)
    _, ref = milp_reference(build_extensive_form(inst).program)
    assert res.status == "optimal" and res.objective == pytest.approx(ref, rel=1e-9)
    assert res.node_count > 1 and sum(checked.values()) >= res.node_count
    if inst.name.startswith("snip"):
        assert checked[optbase.INFEASIBLE] > 0


def test_lbc_survives_wide_coefficient_ranges():
    # These instances once drove the separation masters into bases the
    # simplex could not hold together at its default refactorization
    # cadence (coefficients span 1 to ~2e5): seed 2 ended in declared
    # numerical trouble, seed 5 in a fabricated unboundedness ray (under
    # the pure-numpy kernel). The rescaled retries plus certificate
    # validation have to recover and still reach the true optimum.
    for seed in (2, 5):
        inst = gen_sslp(SslpParams(5, 10, 5, seed=seed))
        res, _ = solve_lbc(inst)
        _, ref = milp_reference(build_extensive_form(inst).program)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref, rel=1e-9)


def test_bc_node_limit_reports_limit_status():
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    res, _ = solve_bbc(inst, node_limit=1)
    assert res.status == "limit"
    assert res.gap > 1e-6
    assert res.bound <= 14.0 / 3.0 + 1e-9


def test_bc_infeasible_first_stage():
    t1 = toy_instance()
    bad = SipInstance(
        name="bad",
        c=t1.c,
        A=np.array([[1.0]]),
        b=np.array([2.0]),  # x >= 2 with ub 1
        vtype=t1.vtype,
        lb=t1.lb,
        ub=t1.ub,
        scenarios=t1.scenarios,
    )
    master = MasterModel(bad, np.zeros(bad.nscen))
    res = run_branch_and_cut(bad, master)
    assert res.status == "infeasible"
    assert res.x is None


def test_bc_integer_lshaped_requires_binary_first_stage():
    t1 = toy_instance()
    wide = SipInstance(
        name="wide",
        c=t1.c,
        A=t1.A,
        b=t1.b,
        vtype=np.array([INT], dtype=np.int8),
        lb=t1.lb,
        ub=t1.ub,
        scenarios=t1.scenarios,
    )
    master = MasterModel(wide, np.zeros(wide.nscen))
    with pytest.raises(InstanceError, match="binary"):
        run_branch_and_cut(wide, master)


def test_root_then_bc_refuses_a_non_binary_first_stage_before_the_root_loop(monkeypatch):
    from sipcuts import optbase

    t1 = toy_instance()
    wide = replace(t1, vtype=np.array([INT], dtype=np.int8), ub=np.array([2.0]))
    calls = []
    solve = optbase._solve_dense
    monkeypatch.setattr(optbase, "_solve_dense", lambda *a, **k: calls.append(1) or solve(*a, **k))
    for mode in ("benders_only", "span_mip"):
        with pytest.raises(InstanceError, match="binary"):
            driver.solve_root_then_bc(wide, VariantConfig(variant=mode))
    assert not calls


def test_every_lp_in_block_form_meets_the_smoke_pins(monkeypatch):
    """Every kernel LP in block form, as the tall branch-and-cut masters
    run it, on the perfbench smoke instances."""
    from sipcuts import _simplex

    factored = []
    block_factors = _simplex._block_factors

    def counting(*args):
        factored.append(1)
        return block_factors(*args)

    monkeypatch.setattr(_simplex, "_BLOCK_FINAL_MIN_ROWS", 1)
    monkeypatch.setattr(_simplex, "_block_factors", counting)
    sslp = gen_sslp(SslpParams(3, 5, 3, seed=7))
    for solve in (solve_lbc, solve_bbc):
        res, _ = solve(sslp)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(4.666666666666667, abs=1e-6)
    snip = gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3))
    cfg = VariantConfig(variant="exact", delta=0.0, early_stop=False)
    _, trace = run_root_loop(snip, cfg)
    assert trace.stop_reason == "saturated"
    assert trace.final_bound == pytest.approx(0.18212975358773237, abs=1e-6)
    assert factored, "no LP ran in block form"


def test_bc_deterministic():
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))

    def run():
        res, _ = solve_bbc(inst)
        return (res.status, res.objective, res.bound, res.node_count, res.x.tobytes())

    assert run() == run()


# ------------------------------------------------------------- profiles


def _trace(baseline, points):
    tr = BoundTrace(baseline=baseline)
    tr.records = [TraceRecord(t, b, i, 0, 0, 0) for i, (t, b) in enumerate(points)]
    return tr


def test_gap_closed_profile_hand_case():
    traces = {
        "fast": {"p1": _trace(0.0, [(0.5, 4.0), (1.0, 10.0)])},
        "slow": {"p1": _trace(0.0, [(1.0, 5.0), (2.0, 7.5)])},
    }
    tau, rho = gap_closed_profile(traces, gamma=0.75)
    # best gap on p1 is 10; target 7.5; fast hits at t=1, slow at t=2
    assert list(tau) == [0.0, 1.0, 2.0]
    assert list(rho["fast"]) == [0.0, 1.0, 1.0]
    assert list(rho["slow"]) == [0.0, 0.0, 1.0]
    tau, rho = gap_closed_profile(traces, gamma=1.0)
    assert list(rho["slow"]) == [0.0] * len(tau)  # never reaches the best gap
    assert max(rho["fast"]) == 1.0


def test_gap_closed_profile_multiple_instances():
    traces = {
        "a": {
            "p1": _trace(0.0, [(1.0, 10.0)]),
            "p2": _trace(0.0, [(4.0, 2.0)]),
        },
        "b": {
            "p1": _trace(0.0, [(2.0, 9.0)]),
            "p2": _trace(1.0, [(1.0, 2.0)]),
        },
    }
    tau, rho = gap_closed_profile(traces, gamma=0.75)
    assert all(0.0 <= v <= 1.0 for curve in rho.values() for v in curve)
    assert all(v2 >= v1 for curve in rho.values() for v1, v2 in zip(curve, curve[1:]))
    # method a closes p1 at 1.0 and p2 at 4.0 -> reaches 1.0 by tau=4
    assert rho["a"][-1] == 1.0


def test_gap_closed_profile_validation(tmp_path):
    with pytest.raises(ValueError):
        gap_closed_profile({}, 0.75)
    with pytest.raises(ValueError):
        gap_closed_profile({"a": {"p": _trace(0.0, [(1.0, 1.0)])}}, 0.0)
    with pytest.raises(ValueError, match="baseline"):
        gap_closed_profile({"a": {"p": _trace(math.nan, [(1.0, 1.0)])}}, 0.5)
    traces = {"a": {"p": _trace(0.0, [(1.0, 1.0)])}}
    tau, rho = gap_closed_profile(traces, 0.5)
    path = tmp_path / "profile.csv"
    profile_to_csv(tau, rho, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time_s,a"
    assert len(lines) == len(tau) + 1


@pytest.mark.parametrize("points", [[], [(1.0, math.nan)], [(1.0, 2.0), (2.0, math.inf)]])
def test_gap_closed_profile_rejects_traces_without_a_finite_bound(points):
    traces = {"a": {"p": _trace(0.0, [(1.0, 1.0)])}, "b": {"p": _trace(0.0, points)}}
    with pytest.raises(ValueError, match="method 'b' for 'p'"):
        gap_closed_profile(traces, 0.5)


@pytest.mark.parametrize("baseline", [math.inf, -math.inf])
def test_gap_closed_profile_rejects_infinite_baselines(baseline):
    with pytest.raises(ValueError, match="no finite baseline"):
        gap_closed_profile({"a": {"p": _trace(baseline, [(1.0, 1.0)])}}, 0.5)

"""End-to-end acceptance gate.

Each test asserts one acceptance criterion at its pinned tolerance and
prints a single `[criterion NN] PASS` summary line (visible with -s).
The tests share a fixed ten-instance suite of tiny covering problems
with integer recourse (every instance small enough for the enumeration
oracles in _oracles.py to certify) and a cut registry: every cut born
while the first five criteria run is revalidated point-by-point against
the brute-force epigraphs afterwards.  Run the file as a whole — the
cut-validity test is deliberately order-dependent on its predecessors.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from _oracles import (
    ball_boundary,
    finite_epigraph,
    milp_reference,
    qbar_enum,
    recourse_table,
    span_coef_boundary,
    span_weight_boundary,
    z_ip_enum,
)
from conftest import make_gap_tiny
from sipcuts import cli
from sipcuts.benders import (
    Cut,
    MasterModel,
    compute_theta_lower_bound,
    solve_benders_subproblem,
)
from sipcuts.driver import (
    BoundTrace,
    TraceRecord,
    VariantConfig,
    run_root_loop,
    solve_bbc,
    solve_lbc,
)
from sipcuts.dualdecomp import (
    convexified_primal_value,
    maximize_dual,
    perfect_information_bound,
)
from sipcuts.instances import SslpParams, gen_sslp
from sipcuts.lagrangian import (
    LAGR_VIOL_TOL,
    NormalizationSpec,
    ScenarioPool,
    eval_qbar,
    separate_restricted,
    strengthen_benders,
)
from sipcuts.model import CONT, SipInstance, build_extensive_form
from sipcuts.optbase import OPTIMAL, solve_lp, solve_mip

SUITE = [make_gap_tiny(seed) for seed in range(10)]


def _single_scenario(seed: int) -> SipInstance:
    """First scenario of the suite instance, alone with probability one.

    The covering demands keep the optimum strictly positive, so the
    relative closure tolerance below is well defined."""
    base = make_gap_tiny(seed)
    scen = replace(base.scenarios[0], prob=1.0)
    return replace(base, name=f"{base.name}-single", scenarios=[scen])


SINGLE = [_single_scenario(seed) for seed in range(5)]

EXACT = dict(variant="exact", delta=0.0, early_stop=False)

# Every cut born while criteria 1-5 run, revalidated wholesale by the
# cut-validity criterion below.
_COLLECTED: list[tuple[SipInstance, Cut]] = []

_DUAL_CACHE: dict[int, object] = {}
_PI_CACHE: dict[int, float] = {}
_EXT_CACHE: dict[int, tuple[float, float]] = {}
_EPI_CACHE: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _collect(inst: SipInstance, cuts) -> None:
    _COLLECTED.extend((inst, cut) for cut in cuts)


def _dual(inst: SipInstance):
    if id(inst) not in _DUAL_CACHE:
        _DUAL_CACHE[id(inst)] = maximize_dual(inst)
    return _DUAL_CACHE[id(inst)]


def _pi_bound(inst: SipInstance) -> float:
    if id(inst) not in _PI_CACHE:
        _PI_CACHE[id(inst)] = perfect_information_bound(inst)
    return _PI_CACHE[id(inst)]


def _extensive_bounds(inst: SipInstance) -> tuple[float, float]:
    """(z_LP, z_IP) of the extensive form; the MIP value is cross-checked
    against full enumeration before being trusted."""
    if id(inst) not in _EXT_CACHE:
        prog = build_extensive_form(inst).program
        lp = solve_lp(prog)
        ip = solve_mip(prog)
        assert lp.status == OPTIMAL and ip.status == OPTIMAL, inst.name
        z_ip = float(ip.objective)
        ref = z_ip_enum(inst)
        assert abs(z_ip - ref) <= 1e-9 * (1.0 + abs(ref)), (inst.name, z_ip, ref)
        _EXT_CACHE[id(inst)] = (float(lp.objective), z_ip)
    return _EXT_CACHE[id(inst)]


def _epigraph(inst: SipInstance, s: int) -> tuple[np.ndarray, np.ndarray]:
    key = (id(inst), s)
    if key not in _EPI_CACHE:
        _EPI_CACHE[key] = finite_epigraph(inst, s)
    return _EPI_CACHE[key]


def test_c01_exact_closure_matches_certified_dual_and_convexified_primal():
    t0 = time.monotonic()
    worst_mid = worst_prim = 0.0
    for inst in SUITE:
        master, trace = run_root_loop(inst, VariantConfig(**EXACT))
        assert trace.stop_reason == "saturated", (inst.name, trace.stop_reason)
        final = trace.final_bound
        dd = _dual(inst)
        assert dd.converged, inst.name
        mid = 0.5 * (dd.value + dd.upper)
        assert mid != 0.0
        rel_mid = abs(final - mid) / abs(mid)
        assert rel_mid <= 1e-4, (inst.name, final, mid)
        prim = convexified_primal_value(inst)
        rel_prim = abs(final - prim) / abs(prim)
        assert rel_prim <= 1e-5, (inst.name, final, prim)
        worst_mid = max(worst_mid, rel_mid)
        worst_prim = max(worst_prim, rel_prim)
        _collect(inst, master.cuts)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(
        f"[criterion 01] PASS — 10/10 exact closures match the certified dual "
        f"midpoint (worst rel {worst_mid:.2e} <= 1e-4) and the convexified "
        f"primal value (worst rel {worst_prim:.2e} <= 1e-5) in {elapsed:.1f}s (< 60s)"
    )


def test_c02_lower_bound_ordering_chain():
    worst = math.inf
    for inst in SUITE:
        z_lp, z_ip = _extensive_bounds(inst)
        chain = (z_lp, _pi_bound(inst), _dual(inst).value, z_ip)
        for lo, hi in zip(chain, chain[1:]):
            worst = min(worst, hi - lo)
            assert hi - lo >= -1e-7, (inst.name, chain)
    print(
        f"[criterion 02] PASS — z_LP <= z_PI <= z_D <= z_IP on 10/10 instances "
        f"(tightest link slack {worst:.2e} >= -1e-7)"
    )


def test_c03_per_scenario_weighted_value_cuts_beat_perfect_information():
    worst = math.inf
    for inst in SUITE:
        theta_lb = np.array(
            [compute_theta_lower_bound(inst, s) for s in range(inst.nscen)]
        )
        master = MasterModel(inst, theta_lb)
        for s in range(inst.nscen):
            value, _ = eval_qbar(inst, s, inst.c, 1.0)
            cut = Cut(
                family="lagrangian",
                scenario=s,
                coef_x=inst.c.copy(),
                coef_theta=1.0,
                rhs=value,
            )
            assert master.add_cut(cut)
            _collect(inst, [cut])
        out, _, _ = master.solve()
        assert out.status == OPTIMAL, inst.name
        margin = float(out.objective) - _pi_bound(inst)
        worst = min(worst, margin)
        assert margin >= -1e-7, (inst.name, margin)
    print(
        f"[criterion 03] PASS — master with only the per-scenario weighted-value "
        f"cuts stays above the perfect-information bound on 10/10 instances "
        f"(worst margin {worst:.2e} >= -1e-7)"
    )


def test_c04_single_scenario_exact_closure_reaches_mip_optimum():
    worst = 0.0
    for inst in SINGLE:
        master, trace = run_root_loop(inst, VariantConfig(**EXACT))
        assert trace.stop_reason == "saturated", (inst.name, trace.stop_reason)
        z_ip = z_ip_enum(inst)
        assert math.isfinite(z_ip) and z_ip != 0.0, inst.name
        rel = abs(trace.final_bound - z_ip) / abs(z_ip)
        worst = max(worst, rel)
        assert rel <= 1e-6, (inst.name, trace.final_bound, z_ip)
        _collect(inst, master.cuts)
    print(
        f"[criterion 04] PASS — 5/5 single-scenario exact closures reach the "
        f"enumerated optimum (worst rel {worst:.2e} <= 1e-6)"
    )


_DELTAS = (0.0, 0.1, 0.5)
_GRID_RES = 1e-3


def _two_vector_basis(inst: SipInstance, s: int) -> np.ndarray:
    """Fixed 2-row multiplier basis: classical-cut coefficients at the box
    corners x=0 and x=1, padded with unit vectors when degenerate."""
    seen: set[bytes] = set()
    rows: list[np.ndarray] = []

    def push(vec: np.ndarray) -> None:
        key = np.round(vec, 12).tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(np.asarray(vec, dtype=np.float64))

    for corner in (np.zeros(inst.nx), np.ones(inst.nx)):
        sub = solve_benders_subproblem(inst, s, corner)
        if sub.cut is not None:
            push(sub.cut.coef_x)
    j = 0
    while len(rows) < 2 and j < inst.nx:
        unit = np.zeros(inst.nx)
        unit[j] = 1.0
        j += 1
        push(unit)
    assert len(rows) >= 2
    return np.array(rows[:2])


def test_c05_restricted_separation_meets_delta_quality():
    t0 = time.monotonic()
    checked = 0
    worst_margin = math.inf
    stops = Counter()
    for seed, inst in enumerate(SUITE):
        rng = np.random.default_rng(2024 + seed)
        tlb = [compute_theta_lower_bound(inst, s) for s in range(inst.nscen)]
        qmax = [float(_epigraph(inst, s)[1].max()) for s in range(inst.nscen)]
        points = []
        for _ in range(20):
            s = int(rng.integers(inst.nscen))
            x_hat = rng.uniform(0.0, 1.0, inst.nx)
            theta_hat = tlb[s] + float(rng.uniform(0.0, 1.2)) * (qmax[s] - tlb[s])
            points.append((s, x_hat, theta_hat))
        for s in sorted({p[0] for p in points}):
            basis = _two_vector_basis(inst, s)
            X, Q = _epigraph(inst, s)
            kinds = ["span_weight", "span_coef"]
            if inst.nx <= 2:
                kinds.append("ball")
            for kind in kinds:
                if kind == "ball":
                    norm = NormalizationSpec("ball", 1.0)
                    PI, P0 = ball_boundary(inst.nx, 1.0, _GRID_RES)
                elif kind == "span_weight":
                    norm = NormalizationSpec(kind, 1.0, basis)
                    PI, P0 = span_weight_boundary(basis, 1.0, _GRID_RES)
                else:
                    norm = NormalizationSpec(kind, 1.0, basis)
                    PI, P0 = span_coef_boundary(basis, 1.0, _GRID_RES)
                qb = (PI @ X.T + np.outer(P0, Q)).min(axis=1)
                for sp, x_hat, theta_hat in points:
                    if sp != s:
                        continue
                    grid_max = float((qb - PI @ x_hat - P0 * theta_hat).max())
                    scen_tol = LAGR_VIOL_TOL * (abs(theta_hat) + 1.0)
                    for delta in _DELTAS:
                        res = separate_restricted(
                            inst, s, x_hat, theta_hat, norm, delta=delta
                        )
                        stops[res.stop] += 1
                        if res.cut is not None:
                            _collect(inst, [res.cut])
                        if grid_max <= scen_tol:
                            continue
                        floor = (1.0 - delta) * grid_max
                        worst_margin = min(worst_margin, res.lower - floor)
                        checked += 1
                        assert res.lower >= floor - 1e-8 * (1.0 + abs(grid_max)), (
                            inst.name, s, kind, delta, res.lower, grid_max, res.stop,
                        )
    assert checked >= 200
    print(
        f"[criterion 05] PASS — {checked} delta-quality checks over "
        f"{dict(stops)} separations: returned violation >= (1-delta) x grid "
        f"maximum every time (worst margin {worst_margin:.2e}), "
        f"{time.monotonic() - t0:.1f}s"
    )


def test_c06_all_generated_cuts_valid_on_enumerated_epigraphs():
    assert len(_COLLECTED) >= 200, "earlier criteria must generate the cut population"
    worst = math.inf
    families = Counter()
    for inst, cut in _COLLECTED:
        X, Q = _epigraph(inst, cut.scenario)
        assert X.size, (inst.name, cut.scenario)
        slack = X @ cut.coef_x + cut.coef_theta * Q - cut.rhs
        low = float(slack.min())
        worst = min(worst, low)
        families[cut.family] += 1
        assert low >= -1e-7, (inst.name, cut.family, cut.scenario, low)
    print(
        f"[criterion 06] PASS — {len(_COLLECTED)} cuts ({dict(families)}) all "
        f"valid at every enumerated epigraph point (worst slack {worst:.2e} >= -1e-7)"
    )


def _benders_parents(inst: SipInstance) -> list[Cut]:
    """Classical cuts from a saturated classical-only root loop plus one
    subproblem cut per scenario at each box corner."""
    master, _ = run_root_loop(
        inst, VariantConfig(variant="benders_only", early_stop=False)
    )
    cuts = [cut for cut in master.cuts if cut.family == "benders"]
    for corner in (np.zeros(inst.nx), np.ones(inst.nx)):
        for s in range(inst.nscen):
            sub = solve_benders_subproblem(inst, s, corner)
            if sub.cut is not None:
                cuts.append(sub.cut)
    return cuts


def _fully_continuous(inst: SipInstance) -> SipInstance:
    scens = [
        replace(sc, vtype=np.full(sc.ny, CONT, dtype=np.int8)) for sc in inst.scenarios
    ]
    return replace(
        inst,
        name=inst.name + "-continuous",
        vtype=np.full(inst.nx, CONT, dtype=np.int8),
        scenarios=scens,
    )


def test_c07_strengthening_lifts_on_gap_instances_and_not_on_continuous():
    lifted = 0
    for inst in SUITE:
        z_lp, z_ip = _extensive_bounds(inst)
        # suite property: every instance carries a real integrality gap
        assert z_ip - z_lp > 1e-6 * (1.0 + abs(z_ip)), (inst.name, z_lp, z_ip)
        parents = _benders_parents(inst)
        assert parents, inst.name
        best = -math.inf
        for parent in parents:
            lift = strengthen_benders(inst, parent.scenario, parent)
            assert np.array_equal(lift.coef_x, parent.coef_x)
            assert lift.coef_theta == parent.coef_theta == 1.0
            best = max(best, lift.rhs - parent.rhs)
            X, Q = _epigraph(inst, parent.scenario)
            low = float((X @ lift.coef_x + Q - lift.rhs).min())
            assert low >= -1e-7, (inst.name, parent.scenario, low)
        assert best > 1e-7, (inst.name, best)
        lifted += 1
    cont = _fully_continuous(SUITE[0])
    parents = _benders_parents(cont)
    assert parents
    worst = 0.0
    for parent in parents:
        lift = strengthen_benders(cont, parent.scenario, parent)
        worst = max(worst, abs(lift.rhs - parent.rhs))
        assert lift.rhs - parent.rhs <= 1e-7, (parent.scenario, lift.rhs, parent.rhs)
    print(
        f"[criterion 07] PASS — strengthening lifted the rhs by > 1e-7 on "
        f"{lifted}/10 gap instances and shifted it by at most {worst:.2e} "
        f"(<= 1e-7) on the fully continuous instance"
    )


def test_c08_branch_and_cut_hits_milp_optimum_with_node_advantage():
    t0 = time.monotonic()
    wins = 0
    nodes = []
    for seed in range(1, 11):
        inst = gen_sslp(SslpParams(5, 10, 5, seed=seed))
        _, ref = milp_reference(build_extensive_form(inst).program)
        lbc, _ = solve_lbc(inst)
        bbc, _ = solve_bbc(inst)
        assert lbc.status == "optimal" and bbc.status == "optimal", inst.name
        assert abs(lbc.objective - ref) <= 1e-6 * abs(ref), (inst.name, lbc.objective, ref)
        assert abs(bbc.objective - ref) <= 1e-6 * abs(ref), (inst.name, bbc.objective, ref)
        wins += int(lbc.node_count <= bbc.node_count)
        nodes.append((lbc.node_count, bbc.node_count))
    assert wins >= 7, nodes
    print(
        f"[criterion 08] PASS — both drivers matched the extensive-form optimum "
        f"on 10/10 SSLP(5,10,5) instances (rel <= 1e-6); Lagrangian-cut nodes <= "
        f"classical nodes on {wins}/10 {nodes}, {time.monotonic() - t0:.1f}s"
    )


def test_c09_weighted_value_homogeneity_and_pool_overestimate():
    t0 = time.monotonic()
    draws = 0
    worst_h = worst_e = 0.0
    worst_o = math.inf
    for seed, inst in enumerate(SUITE):
        rng = np.random.default_rng(909 + seed)
        table = recourse_table(inst)
        for s in range(inst.nscen):
            pool = ScenarioPool()
            for _ in range(100):
                pi = rng.uniform(-3.0, 3.0, inst.nx)
                pi0 = float(rng.uniform(0.0, 2.0))
                value, _ = eval_qbar(inst, s, pi, pi0, pool)
                ref = qbar_enum(inst, s, pi, pi0, table)
                err = abs(value - ref) / (1.0 + abs(ref))
                worst_e = max(worst_e, err)
                assert err <= 1e-9, (inst.name, s, value, ref)
                for t in (0.5, 2.0, 10.0):
                    scaled, _ = eval_qbar(inst, s, t * pi, t * pi0, pool)
                    rel = abs(scaled - t * value) / (1.0 + abs(t * value))
                    worst_h = max(worst_h, rel)
                    assert rel <= 1e-6, (inst.name, s, t, scaled, value)
                X, theta = pool.arrays()
                model = float((X @ pi + pi0 * theta).min())
                worst_o = min(worst_o, model - value)
                assert model - value >= -1e-9 * (1.0 + abs(value)), (inst.name, s)
                draws += 1
    assert draws == 100 * sum(inst.nscen for inst in SUITE)
    print(
        f"[criterion 09] PASS — {draws} draws: positive homogeneity worst rel "
        f"{worst_h:.2e} <= 1e-6, pool-overestimate worst margin {worst_o:.2e} "
        f">= 0, exact-vs-enumeration worst rel {worst_e:.2e}, "
        f"{time.monotonic() - t0:.1f}s"
    )


def test_c10_worker_count_invariance():
    results = {}
    for workers in (1, 4):
        finals, pools = [], []
        for inst in SUITE:
            master, trace = run_root_loop(inst, VariantConfig(workers=workers, **EXACT))
            finals.append(trace.final_bound)
            pools.append(
                [
                    (c.family, c.scenario, c.coef_x.tobytes(), float(c.coef_theta), float(c.rhs))
                    for c in master.cuts
                ]
            )
        results[workers] = (finals, pools)
    assert results[1][0] == results[4][0]
    assert results[1][1] == results[4][1]
    print(
        "[criterion 10] PASS — 1-worker and 4-worker reruns produced identical "
        "final bounds and identical cut pools on 10/10 instances"
    )


def _synthetic_trace(path, points) -> None:
    tr = BoundTrace()
    for i, (t, bound) in enumerate(points, start=1):
        tr.records.append(
            TraceRecord(
                time_s=float(t),
                lower_bound=float(bound),
                iteration=i,
                n_benders=i,
                n_lagrangian=0,
                n_intl=0,
            )
        )
    tr.to_csv(str(path))


def test_c11_gap_closed_profile_matches_hand_computed_curves(tmp_path):
    traces = {
        ("fast", "i1", 0.0): [(1.0, 8.0)],
        ("slow", "i1", 0.0): [(2.0, 10.0)],
        ("fast", "i2", 5.0): [(3.0, 15.0)],
        ("slow", "i2", 5.0): [(1.0, 10.0)],
    }
    manifest = tmp_path / "manifest.csv"
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "instance", "path", "baseline"])
        for (method, instance, baseline), pts in traces.items():
            path = tmp_path / f"{method}_{instance}.csv"
            _synthetic_trace(path, pts)
            writer.writerow([method, instance, str(path), repr(baseline)])
    out = tmp_path / "profiles"
    assert cli.main(["profile", str(manifest), "--gamma", "0.75,0.95", "--out", str(out)]) == 0

    # Hand computation.  Gaps closed over baseline: i1 fast 8, slow 10
    # (best 10); i2 fast 15-5=10, slow 10-5=5 (best 10).
    # gamma=0.75 -> threshold 7.5 on both: fast hits i1 at t=1 and i2 at
    # t=3; slow hits i1 at t=2 and never hits i2.
    # gamma=0.95 -> threshold 9.5: fast hits only i2 at t=3; slow hits
    # only i1 at t=2.
    expect = {
        "profile_gamma0.75.csv": [
            ["time_s", "fast", "slow"],
            ["0.0", "0.0", "0.0"],
            ["1.0", "0.5", "0.0"],
            ["2.0", "0.5", "0.5"],
            ["3.0", "1.0", "0.5"],
        ],
        "profile_gamma0.95.csv": [
            ["time_s", "fast", "slow"],
            ["0.0", "0.0", "0.0"],
            ["2.0", "0.0", "0.5"],
            ["3.0", "0.5", "0.5"],
        ],
    }
    for fname, want in expect.items():
        with open(out / fname, newline="", encoding="utf-8") as fh:
            got = list(csv.reader(fh))
        assert got == want, (fname, got)
    print(
        "[criterion 11] PASS — profile curves for gamma in {0.75, 0.95} match "
        "the hand-computed step functions exactly"
    )

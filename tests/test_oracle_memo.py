"""Twin merging and the oracle memo: identical scenarios are solved as one,
a repeated question gets its first answer, bit for bit, within one
top-level solve, and a separation reuses an unchanged master."""

from dataclasses import replace

import numpy as np
import pytest

from sipcuts import driver, lagrangian, model, optbase
from sipcuts.benders import solve_benders_subproblem
from sipcuts.driver import VariantConfig, run_root_loop
from sipcuts.instances import SnipParams, SslpParams, gen_snip, gen_sslp
from sipcuts.lagrangian import NormalizationSpec, ScenarioPool, eval_qbar, separate_restricted
from sipcuts.model import (
    CONT,
    InstanceError,
    RecourseUnboundedError,
    merge_twins,
    oracle_memo,
    scenario_classes,
    toy_instance,
)


@pytest.fixture
def snip():
    """The snip-root smoke instance: 4 scenarios, 2 distinct."""
    return gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts `optbase._solve_dense` calls, one per LP."""
    calls = []
    solve = optbase._solve_dense

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(optbase, "_solve_dense", counted)
    return calls


def test_scenario_classes_name_the_first_identical_scenario(snip):
    assert scenario_classes(snip) == [0, 0, 2, 0]
    assert scenario_classes(toy_instance()) == [0, 1]
    snip.scenarios[1].prob += 0.1  # no oracle reads the probability
    snip.scenarios[3].h = snip.scenarios[3].h.copy()
    snip.scenarios[3].h[0] = -0.0  # byte-identical, not equal
    assert scenario_classes(snip) == [0, 0, 2, 3]


def _cuts_hold_on_their_epigraphs(inst, cuts):
    """Every cut holds at each enumerated first-stage point of `inst`
    with the exact recourse value of the scenario it names."""
    epigraphs = {s: model.brute_force_epigraph(inst, s) for s in range(inst.nscen)}
    for cut in cuts:
        X, Q = epigraphs[cut.scenario]
        finite = np.isfinite(Q)
        slack = X[finite] @ cut.coef_x + cut.coef_theta * Q[finite] - cut.rhs
        assert slack.min() >= -1e-7, (cut.family, cut.scenario, slack.min())


def test_merge_twins_returns_a_twin_free_instance_itself(snip):
    for inst in (toy_instance(), gen_sslp(SslpParams(3, 5, 3, seed=7))):
        assert merge_twins(inst) is inst
    merged = merge_twins(snip)
    assert [s.prob for s in merged.scenarios] == [0.75, 0.25]
    assert merged.scenarios[0].q is snip.scenarios[0].q
    assert merged.scenarios[1].q is snip.scenarios[2].q
    assert [s.prob for s in snip.scenarios] == [0.25] * 4  # the caller's is kept


def test_branch_and_cut_on_the_root_loops_master_of_a_twin_instance(snip):
    master, _ = run_root_loop(snip, VariantConfig(variant="benders_only"))
    assert master.inst.nscen == 2
    res = driver.run_branch_and_cut(snip, master)
    assert res.status == "optimal"
    assert abs(res.objective - 0.323883) <= 1e-6


def _root_loop_bytes(master, trace):
    """What an `exact` root loop produced, bit for bit."""
    records = [
        (repr(r.lower_bound), r.iteration, r.n_benders, r.n_lagrangian, r.n_intl)
        for r in trace.records
    ]
    cuts = [
        (c.family, c.scenario, c.coef_x.tobytes(), c.coef_theta, c.rhs) for c in master.cuts
    ]
    return records, trace.stop_reason, trace.separation_stops, cuts


def test_twin_scenarios_share_one_separation(kernel_calls):
    base = gen_sslp(SslpParams(3, 5, 3, seed=7))
    first, *rest = base.scenarios
    half = replace(first, prob=first.prob / 2)
    inst = replace(base, scenarios=[half, replace(half), *rest])
    assert scenario_classes(inst) == [0, 0, 2, 3]
    cfg = VariantConfig(variant="exact", delta=0.0, early_stop=False)
    runs, calls = [], []
    for case in (base, inst):
        kernel_calls.clear()
        runs.append(run_root_loop(case, cfg))
        calls.append(len(kernel_calls))
    (one, one_trace), (twins, twins_trace) = runs
    assert twins.inst.nscen == base.nscen == 3
    assert [s.prob for s in twins.inst.scenarios] == [s.prob for s in base.scenarios]
    assert sum(one_trace.separation_stops.values()) > 0
    # the twins' scenario is searched once per round, as if never split
    assert calls[0] == calls[1] > 0
    assert _root_loop_bytes(one, one_trace) == _root_loop_bytes(twins, twins_trace)


def test_shared_answers_change_no_result(snip):
    distinct = replace(snip, scenarios=[replace(scen) for scen in snip.scenarios])
    for s, row in ((1, 0), (3, 1)):  # byte-distinct, equal in value
        distinct.scenarios[s].h = distinct.scenarios[s].h.copy()
        distinct.scenarios[s].h[row] = -0.0
    assert scenario_classes(distinct) == [0, 1, 2, 3]
    cfg = VariantConfig(variant="exact", delta=0.0, early_stop=False)
    runs = [run_root_loop(inst, cfg) for inst in (snip, distinct)]
    (merged, merged_trace), (unmerged, unmerged_trace) = runs
    assert merged.inst.nscen == 2 and unmerged.inst is distinct
    assert merged_trace.stop_reason == unmerged_trace.stop_reason == "saturated"
    assert abs(merged_trace.final_bound - unmerged_trace.final_bound) <= 1e-9
    for master in (merged, unmerged):
        _cuts_hold_on_their_epigraphs(master.inst, master.cuts)


def test_consecutive_root_loops_do_the_same_work(snip, kernel_calls):
    cfg = VariantConfig(variant="exact", delta=0.0, early_stop=False)
    counts = []
    for _ in range(2):
        kernel_calls.clear()
        run_root_loop(snip, cfg)
        counts.append(len(kernel_calls))
    assert counts[0] == counts[1] > 0


def test_answers_are_copies(snip, kernel_calls):
    x = np.zeros(snip.nx)
    pi = np.linspace(0.1, 0.8, snip.nx)
    with oracle_memo(snip):
        first = solve_benders_subproblem(snip, 0, x)
        value, x_first = eval_qbar(snip, 0, pi, 0.5)
        solved = len(kernel_calls)
        first.cut.coef_x[:] = 7.0
        first.cut.rhs = 7.0
        x_first[:] = 7.0
        again = solve_benders_subproblem(snip, 0, x)
        again_value, x_again = eval_qbar(snip, 0, pi, 0.5, ScenarioPool())
        assert len(kernel_calls) == solved  # both answered from the memo
    fresh = solve_benders_subproblem(snip, 0, x)
    assert again.cut.scenario == 0
    assert again.cut.coef_x.tobytes() == fresh.cut.coef_x.tobytes()
    assert again.cut.rhs == fresh.cut.rhs
    assert again_value == value
    assert x_again.tobytes() == eval_qbar(snip, 0, pi, 0.5)[1].tobytes()


def test_replayed_oracle_answer_fills_the_pool(snip, kernel_calls):
    pi = np.linspace(-0.5, 0.5, snip.nx)
    pools = [ScenarioPool() for _ in range(3)]
    eval_qbar(snip, 0, pi, 5e-5, pools[0])  # outside a memo, as reference
    with oracle_memo(snip):
        eval_qbar(snip, 0, pi, 5e-5, pools[1])
        solved = len(kernel_calls)
        eval_qbar(snip, 0, pi, 5e-5, pools[2])  # the same question, a fresh pool
        assert len(kernel_calls) == solved
    arrays = [tuple(a.tobytes() for a in p.arrays()) for p in pools]
    assert arrays[0] == arrays[1] == arrays[2]
    assert len(pools[0]) >= 1


def test_memo_is_scoped_to_its_instance(snip, kernel_calls):
    toy = toy_instance()
    with oracle_memo(snip):
        with oracle_memo(toy):
            model.eval_recourse(toy, 0, np.ones(1))
            model.eval_recourse(toy, 0, np.ones(1))
            assert len(kernel_calls) == 1
            model.eval_recourse(snip, 0, np.zeros(snip.nx))
            model.eval_recourse(snip, 0, np.zeros(snip.nx))
            assert len(kernel_calls) == 3  # toy's memo does not serve snip
        with oracle_memo(snip):  # nested: the outer memo answers
            model.eval_recourse(snip, 1, np.zeros(snip.nx))
        assert len(kernel_calls) == 4
    model.eval_recourse(snip, 0, np.zeros(snip.nx))
    assert len(kernel_calls) == 5


def _cut_bytes(cut):
    return (cut.family, cut.scenario, cut.coef_x.tobytes(), repr(cut.coef_theta), repr(cut.rhs))


@pytest.mark.parametrize("recourse_first", [True, False])
def test_recourse_value_and_classical_cut_share_one_root_lp(recourse_first, kernel_calls):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))  # the SSLP smoke instance
    x = np.array([1.0, 0.0, 1.0])
    value = model.eval_recourse(inst, 0, x)
    sub = solve_benders_subproblem(inst, 0, x)
    alone = len(kernel_calls)  # each call solved its own root LP
    kernel_calls.clear()
    with oracle_memo(inst):
        if recourse_first:
            shared_value = model.eval_recourse(inst, 0, x)
            shared = solve_benders_subproblem(inst, 0, x)
        else:
            shared = solve_benders_subproblem(inst, 0, x)
            shared_value = model.eval_recourse(inst, 0, x)
    assert len(kernel_calls) == alone - 1
    assert repr(shared_value) == repr(value)
    assert repr(shared.value) == repr(sub.value)
    assert _cut_bytes(shared.cut) == _cut_bytes(sub.cut)
    assert shared.feas_cut is sub.feas_cut is None


def test_recourse_value_on_a_box_that_rounds_solves_one_lp(kernel_calls):
    # y <= 2.5 rounds to y <= 2, so the recourse MIP's root is not the
    # relaxation, and the relaxation is not asked for
    toy = toy_instance()
    inst = replace(toy, scenarios=[replace(toy.scenarios[0], ub=np.array([2.5])), toy.scenarios[1]])
    x = np.zeros(1)
    alone = model.eval_recourse(inst, 0, x)
    assert len(kernel_calls) == 1
    kernel_calls.clear()
    with oracle_memo(inst):
        value = model.eval_recourse(inst, 0, x)
    assert len(kernel_calls) == 1
    assert repr(value) == repr(alone) == repr(2.0)


def _unbounded_recourse_instance():
    """The toy instance with scenario 0's recourse y continuous, unbounded
    above and priced at -1: its LP relaxation is unbounded below."""
    toy = toy_instance()
    scen = replace(toy.scenarios[0], q=np.array([-1.0]), vtype=np.array([CONT], dtype=np.int8))
    return replace(toy, scenarios=[scen, toy.scenarios[1]])


@pytest.mark.parametrize("recourse_first", [True, False])
def test_unbounded_relaxation_keeps_each_callers_error(recourse_first, kernel_calls):
    inst = _unbounded_recourse_instance()
    x = np.zeros(1)
    asks = [
        (lambda: model.eval_recourse(inst, 0, x), RecourseUnboundedError),
        (lambda: solve_benders_subproblem(inst, 0, x), InstanceError),
    ]
    with oracle_memo(inst):
        for ask, error in asks if recourse_first else asks[::-1]:
            with pytest.raises(error, match="unbounded"):
                ask()
    assert len(kernel_calls) == 1


def test_pool_version_counts_changes():
    pool = ScenarioPool()
    x = np.array([1.0, 0.0])
    assert pool.add(x, 5.0) and pool.version == 1
    assert not pool.add(x, 6.0) and pool.version == 1
    assert pool.add(x, 4.0) and pool.version == 2
    assert pool.add(np.zeros(2), 4.0) and pool.version == 3


def test_separation_reuses_an_unchanged_master(snip, monkeypatch):
    lp_solves = []
    solve_lp = lagrangian.solve_lp

    def counted(*args, **kwargs):
        lp_solves.append(1)
        return solve_lp(*args, **kwargs)

    def separate():
        lp_solves.clear()
        x_hat = np.full(snip.nx, 0.5)
        res = separate_restricted(snip, 0, x_hat, 0.0, NormalizationSpec("ball"), ScenarioPool())
        return res, len(lp_solves)

    monkeypatch.setattr(lagrangian, "solve_lp", counted)  # the separation masters
    reused, solves = separate()
    solve_master = lagrangian._solve_master

    def forgetful(*args, last=None, **kwargs):  # re-solves every master
        return solve_master(*args, **kwargs)

    monkeypatch.setattr(lagrangian, "_solve_master", forgetful)
    plain, plain_solves = separate()
    assert plain_solves > solves
    assert reused.stop == "pi0_small" and reused.oracle_calls > 2
    assert (reused.lower, reused.upper, reused.stop, reused.oracle_calls, reused.pi0) == (
        plain.lower,
        plain.upper,
        plain.stop,
        plain.oracle_calls,
        plain.pi0,
    )
    assert reused.pi.tobytes() == plain.pi.tobytes()


# ------------------------------------------------ warm-started relaxations


@pytest.fixture
def relaxation_solves(monkeypatch):
    """(program, warm, outcome) of every scenario LP relaxation solved."""
    solves = []
    solve = model.solve_lp

    def recording(prog, *args, warm=None, **kwargs):
        out = solve(prog, *args, warm=warm, **kwargs)
        solves.append((prog, warm, out))
        return out

    monkeypatch.setattr(model, "solve_lp", recording)
    return solves


def _kernel_outputs(monkeypatch):
    """Digests of every `optbase._solve_dense` output, in call order."""
    digests = []
    solve = optbase._solve_dense

    def hashed(*args, **kwargs):
        out = solve(*args, **kwargs)
        status, x, obj, y, ray, it, basis = out
        parts = [x, y, ray] + ([] if basis is None else list(basis[:2]))
        digests.append((status, repr(obj), it, tuple(np.asarray(a).tobytes() for a in parts)))
        return out

    monkeypatch.setattr(optbase, "_solve_dense", hashed)
    return digests


def test_bbc_warm_relaxations_match_cold_solves_and_every_cut_holds(
    relaxation_solves, monkeypatch
):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))  # the SSLP smoke instance
    cuts = []
    add_cut = driver.MasterModel.add_cut

    def collecting(self, cut):
        cuts.append(cut)
        return add_cut(self, cut)

    monkeypatch.setattr(driver.MasterModel, "add_cut", collecting)
    res, _ = driver.solve_bbc(inst)
    assert res.status == "optimal"
    warm = [(prog, out) for prog, start, out in relaxation_solves if start is not None]
    assert len(warm) > 10
    for prog, out in warm:
        cold = optbase.solve_lp(prog)
        assert out.status == cold.status
        if cold.status == optbase.OPTIMAL:
            assert abs(out.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
    assert {c.family for c in cuts} == {"benders", "integer_lshaped"}
    _cuts_hold_on_their_epigraphs(inst, cuts)


@pytest.mark.parametrize(
    "variant, make",
    [
        ("span_mip", lambda: gen_sslp(SslpParams(3, 5, 3, seed=7))),
        ("strengthened", lambda: gen_sslp(SslpParams(3, 5, 3, seed=7))),
    ],
)
def test_multiplier_root_loops_start_no_relaxation_warm(
    variant, make, relaxation_solves, monkeypatch
):
    # the span loops search the span of the classical duals and the
    # strengthened loop lifts them, so another dual vertex moves their
    # path; `exact` searches the whole ball and runs warm (below)
    cfg = VariantConfig(variant=variant, delta=0.0, early_stop=False)
    digests = _kernel_outputs(monkeypatch)
    run_root_loop(make(), cfg)
    assert relaxation_solves and all(warm is None for _, warm, _ in relaxation_solves)
    kept = list(digests)
    digests.clear()
    memo = model.oracle_memo
    monkeypatch.setattr(driver, "oracle_memo", lambda inst, warm_starts=False: memo(inst))
    run_root_loop(make(), cfg)  # every memo cold, as before warm starts
    assert digests == kept


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3)),
        lambda: gen_sslp(SslpParams(3, 5, 3, seed=7)),
    ],
    ids=["snip", "sslp"],
)
def test_warm_exact_root_loop_matches_cold_solves_and_every_cut_holds(
    make, relaxation_solves, monkeypatch
):
    inst = make()
    cuts = []
    add_cut = driver.MasterModel.add_cut

    def collecting(self, cut):
        cuts.append(cut)
        return add_cut(self, cut)

    monkeypatch.setattr(driver.MasterModel, "add_cut", collecting)
    cfg = VariantConfig(variant="exact", delta=0.0, early_stop=False)
    master, warm_trace = run_root_loop(inst, cfg)
    warm = [(prog, out) for prog, start, out in relaxation_solves if start is not None]
    assert len(warm) >= 5
    for prog, out in warm:
        cold = optbase.solve_lp(prog)
        assert out.status == cold.status
        if cold.status == optbase.OPTIMAL:
            v = cold.objective
            assert abs(out.objective - v) <= 1e-9 * (1.0 + abs(v))
    # the cuts name scenarios of the merged instance the loop solved
    _cuts_hold_on_their_epigraphs(master.inst, cuts)
    relaxation_solves.clear()
    memo = model.oracle_memo
    monkeypatch.setattr(driver, "oracle_memo", lambda inst, warm_starts=False: memo(inst))
    _, cold_trace = run_root_loop(inst, cfg)
    assert all(start is None for _, start, _ in relaxation_solves)
    assert warm_trace.stop_reason == cold_trace.stop_reason == "saturated"
    assert abs(warm_trace.final_bound - cold_trace.final_bound) <= 1e-6


def test_consecutive_bbc_solves_make_the_same_kernel_calls(monkeypatch):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    digests = _kernel_outputs(monkeypatch)
    runs = []
    for _ in range(2):
        digests.clear()
        res, _ = driver.solve_bbc(inst)
        runs.append((list(digests), res.node_count, repr(res.objective)))
    assert runs[0] == runs[1] and runs[0][0]


@pytest.mark.parametrize("outer_warm", [False, True])
def test_nested_memo_keeps_the_open_warm_setting(outer_warm, relaxation_solves):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    points = [np.array([1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
    with oracle_memo(inst, warm_starts=outer_warm):
        with oracle_memo(inst, warm_starts=not outer_warm):
            for s, x in enumerate(points):
                model.recourse_relaxation(inst, s, x)
        model.recourse_relaxation(inst, 2, points[0])
    starts = [warm is not None for _, warm, _ in relaxation_solves]
    assert starts == [False, outer_warm, outer_warm]


def test_dual_classes_ignore_the_right_hand_side(snip):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    assert model.dual_classes(inst) == [0, 0, 0]
    assert scenario_classes(inst) == [0, 1, 2]
    assert model.dual_classes(snip) == scenario_classes(snip) == [0, 0, 2, 0]


# ------------------------------------------------- warm-started qbar roots


def _qbar_answers(monkeypatch):
    """(s, pi, pi0, value, incumbents) of every qbar MIP solved."""
    answers = []
    qbar = lagrangian._qbar

    def recording(inst, s, pi, pi0):
        out = qbar(inst, s, pi, pi0)
        answers.append((s, pi.copy(), pi0, out[0], out[2]))
        return out

    monkeypatch.setattr(lagrangian, "_qbar", recording)
    return answers


def _in_first_stage(inst, x):
    integral = (np.abs(x - np.round(x)) <= 1e-9) | (inst.vtype == CONT)
    return (
        np.all(inst.A @ x >= inst.b - 1e-7)
        and np.all(x >= inst.lb - 1e-9)
        and np.all(x <= inst.ub + 1e-9)
        and np.all(integral)
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_snip(SnipParams(12, 30, 8, 10.0, 4, seed=3)),
        lambda: gen_sslp(SslpParams(3, 5, 3, seed=7)),
    ],
    ids=["snip", "sslp"],
)
def test_warm_qbar_values_match_cold_solves_and_every_pool_point_is_feasible(
    make, monkeypatch
):
    inst = make()
    answers = _qbar_answers(monkeypatch)
    pools = []

    def pool():
        pools.append(ScenarioPool())
        return pools[-1]

    monkeypatch.setattr(driver, "ScenarioPool", pool)
    master, _ = run_root_loop(inst, VariantConfig(variant="exact", delta=0.0, early_stop=False))
    monkeypatch.undo()
    inst = master.inst  # the answers and pools index its scenarios
    assert len(answers) >= 5 and len(pools) == inst.nscen
    for s, pi, pi0, value, _ in answers:  # no memo is open: cold solves
        cold = lagrangian._qbar(inst, s, pi, pi0)[0]
        assert abs(value - cold) <= 1e-9 * (1.0 + abs(cold)), (s, value, cold)
    points = [(s, x, th) for s, _, _, _, inc in answers for x, th in inc]
    for s, p in enumerate(pools):
        points += [(s, x, th) for x, th in zip(*p.arrays())]
    for s, x, theta in points:
        assert _in_first_stage(inst, x)
        q = model.eval_recourse(inst, s, x)
        assert theta >= q - 1e-9 * (1.0 + abs(theta)), (s, theta, q)


def test_scenarios_that_differ_in_q_alone_never_share_a_qbar_start(snip, monkeypatch):
    # the merged scenarios share W, h, T and bounds, and each has its own q
    merged = merge_twins(snip)
    assert model._classes(merged, ("W", "h", "T", "lb", "ub", "vtype")) == [0, 0]
    assert scenario_classes(merged) == [0, 1]
    asked = []
    made = lagrangian.joint_scenario_program

    def program(inst, s, *args):
        asked.append(s)
        return made(inst, s, *args)

    solves = []  # (scenario, warm, outcome) of every qbar MIP
    solve = lagrangian.solve_mip

    def recording(prog, *args, warm=None, **kwargs):
        out = solve(prog, *args, warm=warm, **kwargs)
        solves.append((asked[-1], warm, out))
        return out

    monkeypatch.setattr(lagrangian, "joint_scenario_program", program)
    monkeypatch.setattr(lagrangian, "solve_mip", recording)
    run_root_loop(snip, VariantConfig(variant="exact", delta=0.0, early_stop=False))
    warm_scenarios = set()
    for k, (s, warm, _) in enumerate(solves):
        if warm is None:
            continue
        maker = [r for r, _, out in solves[:k] if out.basis is warm]
        assert maker and maker[-1] == s
        warm_scenarios.add(s)
    assert warm_scenarios == {0, 1}


def test_consecutive_lbc_solves_make_the_same_kernel_calls(monkeypatch):
    inst = gen_sslp(SslpParams(3, 5, 3, seed=7))
    digests = _kernel_outputs(monkeypatch)
    runs = []
    for _ in range(2):
        digests.clear()
        res, _ = driver.solve_lbc(inst)
        runs.append((list(digests), res.node_count, repr(res.objective)))
    assert runs[0] == runs[1] and runs[0][0]

import math

import numpy as np
import pytest

from _oracles import first_stage_points, linprog_reference, recourse_enum
from conftest import make_tiny
from sipcuts.benders import (
    Cut,
    MasterModel,
    compute_theta_lower_bound,
    separate_integer_lshaped,
    solve_benders_subproblem,
)
from sipcuts.driver import separate_classical
from sipcuts.model import (
    BIN,
    CONT,
    InstanceError,
    Scenario,
    SipInstance,
    recourse_program,
    toy_instance,
)
from sipcuts.optbase import OPTIMAL


def q_lp_ref(inst, s, x):
    """Scenario LP relaxation value via scipy (independent of the kernel)."""
    status, obj = linprog_reference(recourse_program(inst, s, x))
    return obj if status == OPTIMAL else math.inf


# ------------------------------------------------------------ classical cut


def test_toy_benders_cuts_frozen(t1):
    x0 = np.array([0.0])
    res0 = solve_benders_subproblem(t1, 0, x0)
    assert res0.value == 2.0
    np.testing.assert_allclose(res0.cut.coef_x, [2.0])
    assert res0.cut.coef_theta == 1.0
    assert abs(res0.cut.rhs - 2.0) < 1e-12

    res1 = solve_benders_subproblem(t1, 1, x0)
    np.testing.assert_allclose(res1.cut.coef_x, [3.0])
    assert abs(res1.cut.rhs - 3.0) < 1e-12


def test_benders_threshold(t1):
    x0 = np.array([0.0])
    got = separate_classical(t1, 0, x0, theta_hat=0.0)
    assert got is not None and -got.slack(x0, 0.0) == pytest.approx(2.0)
    assert separate_classical(t1, 0, x0, theta_hat=2.0) is None
    # just below the value but within tolerance: no cut
    assert separate_classical(t1, 0, x0, theta_hat=2.0 - 1e-5) is None


def test_bound_term_constant_enters_rhs():
    # recourse: min -y, -y >= -9 (inactive), y in [0, 2] -> optimum at the
    # upper bound, zero dual, reduced cost -1, so rhs = 0*h + (-1)*2 = -2.
    inst = SipInstance(
        name="ub-case",
        c=np.array([0.0]),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        vtype=np.array([BIN], dtype=np.int8),
        lb=np.zeros(1),
        ub=np.ones(1),
        scenarios=[
            Scenario(
                prob=1.0,
                q=np.array([-1.0]),
                W=np.array([[-1.0]]),
                h=np.array([-9.0]),
                T=np.zeros((1, 1)),
                vtype=np.array([CONT], dtype=np.int8),
                lb=np.zeros(1),
                ub=np.array([2.0]),
            )
        ],
    )
    res = solve_benders_subproblem(inst, 0, np.array([0.0]))
    assert res.value == -2.0
    np.testing.assert_allclose(res.cut.coef_x, [0.0])
    assert abs(res.cut.rhs - (-2.0)) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_benders_cut_valid_and_tight(seed):
    inst = make_tiny(seed)
    pts = first_stage_points(inst)
    anchors = [pts[0], pts[-1], pts[len(pts) // 2]]
    for s in range(inst.nscen):
        for xh in anchors:
            res = solve_benders_subproblem(inst, s, xh)
            assert res.cut is not None
            # tight at the anchor (strong duality)
            assert res.cut.slack(xh, res.value) == pytest.approx(0.0, abs=1e-7)
            # valid across the whole feasible set, against scipy values
            for x in pts:
                qlp = q_lp_ref(inst, s, x)
                assert res.cut.slack(x, qlp) >= -1e-7 * (1 + abs(qlp))
                # ... and a fortiori under the integer recourse value
                qip = recourse_enum(inst, s, x)
                assert res.cut.slack(x, qip) >= -1e-7 * (1 + abs(qip))


# ----------------------------------------------------- integer optimality


def test_toy_integer_lshaped_frozen(t1):
    L = compute_theta_lower_bound(t1, 0)
    assert L == pytest.approx(0.0, abs=1e-9)
    cut = separate_integer_lshaped(t1, 0, np.array([0.0]), theta_hat=0.0, theta_lb=L)
    np.testing.assert_allclose(cut.coef_x, [2.0])
    assert cut.coef_theta == 1.0
    assert abs(cut.rhs - 2.0) < 1e-9
    # at x=1 the recourse is 0 = theta lower bound: nothing to cut
    assert (
        separate_integer_lshaped(t1, 0, np.array([1.0]), theta_hat=0.0, theta_lb=L) is None
    )


def test_integer_lshaped_requires_binary_first_stage(t1):
    inst = make_tiny(1)
    inst.vtype[0] = 1  # general integer
    with pytest.raises(InstanceError, match="binary"):
        separate_integer_lshaped(inst, 0, np.zeros(inst.nx), 0.0, 0.0)
    with pytest.raises(InstanceError, match="fractional"):
        separate_integer_lshaped(t1, 0, np.array([0.4]), 0.0, 0.0)


@pytest.mark.parametrize("seed", [0, 3, 5, 12])
def test_integer_lshaped_valid_everywhere_tight_at_anchor(seed):
    inst = make_tiny(seed)
    pts = first_stage_points(inst)
    table = {s: [recourse_enum(inst, s, x) for x in pts] for s in range(inst.nscen)}
    for s in range(inst.nscen):
        L = compute_theta_lower_bound(inst, s)
        assert L <= min(table[s]) + 1e-7
        for k, xh in enumerate(pts):
            cut = separate_integer_lshaped(inst, s, xh, theta_hat=L - 10.0, theta_lb=L)
            if cut is None:
                continue
            assert cut.slack(xh, table[s][k]) == pytest.approx(0.0, abs=1e-9)
            for kk, x in enumerate(pts):
                assert cut.slack(x, table[s][kk]) >= -1e-9


# ------------------------------------------------------------- feasibility


def _incomplete_recourse():
    return SipInstance(
        name="gap-feas",
        c=np.array([0.0]),
        A=np.zeros((0, 1)),
        b=np.zeros(0),
        vtype=np.array([BIN], dtype=np.int8),
        lb=np.zeros(1),
        ub=np.ones(1),
        scenarios=[
            Scenario(
                prob=1.0,
                q=np.array([1.0]),
                W=np.array([[1.0]]),
                h=np.array([0.0]),
                T=np.array([[-1.0]]),
                vtype=np.array([CONT], dtype=np.int8),
                lb=np.zeros(1),
                ub=np.zeros(1),  # y pinned to 0: feasible only when x = 0
            )
        ],
    )


def test_feasibility_cut_separates_infeasible_point():
    inst = _incomplete_recourse()
    res = solve_benders_subproblem(inst, 0, np.array([1.0]))
    assert res.value == math.inf and res.cut is None
    fc = res.feas_cut
    assert fc is not None and fc.family == "feasibility" and fc.coef_theta == 0.0
    assert fc.slack(np.array([1.0]), 0.0) < -1e-9  # cuts off x = 1
    assert fc.slack(np.array([0.0]), 0.0) >= -1e-12  # keeps x = 0


# ------------------------------------------------------------------ master


def test_master_dedup_and_counts(t1):
    master = MasterModel(t1, theta_lb=np.zeros(2))
    cut = Cut("benders", 0, np.array([2.0]), 1.0, 2.0)
    assert master.add_cut(cut)
    assert not master.add_cut(Cut("benders", 0, np.array([2.0]), 1.0, 2.0))
    assert master.add_cut(Cut("benders", 1, np.array([2.0]), 1.0, 2.0))
    assert master.counts() == {"benders": 2}


def test_master_one_round_closes_toy(t1):
    L = np.array([compute_theta_lower_bound(t1, s) for s in range(2)])
    master = MasterModel(t1, theta_lb=L)
    out, x, theta = master.solve()
    assert out.status == OPTIMAL and out.objective == pytest.approx(0.0)
    for s in range(2):
        cut = separate_classical(t1, s, x, theta[s])
        assert cut is not None and master.add_cut(cut)
    out, x, theta = master.solve()
    assert out.objective == pytest.approx(1.0)
    assert x[0] == pytest.approx(1.0)


def test_master_bound_overrides(t1):
    master = MasterModel(t1, theta_lb=np.zeros(2))
    master.add_cut(Cut("benders", 0, np.array([2.0]), 1.0, 2.0))
    master.add_cut(Cut("benders", 1, np.array([3.0]), 1.0, 3.0))
    out, x, _ = master.solve(lb=np.array([0.0]), ub=np.array([0.0]))
    assert out.status == OPTIMAL
    assert x[0] == pytest.approx(0.0)
    assert out.objective == pytest.approx(2.5)

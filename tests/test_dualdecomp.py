import numpy as np
import pytest

import scipy.optimize as sopt

from _oracles import first_stage_points, recourse_enum, z_ip_enum
from conftest import make_tiny
from sipcuts.dualdecomp import (
    DualResult,
    convexified_primal_value,
    eval_dual,
    maximize_dual,
    perfect_information_bound,
)
from sipcuts.model import InstanceError, build_extensive_form
from sipcuts.optbase import OPTIMAL, solve_lp


def z_pi_enum(inst):
    total = 0.0
    pts = first_stage_points(inst)
    for s in range(inst.nscen):
        best = min(float(inst.c @ x) + recourse_enum(inst, s, x) for x in pts)
        total += inst.scenarios[s].prob * best
    return total


def convexified_reference(inst):
    """Same characterization LP as the package, solved by scipy."""
    sets = []
    pts = first_stage_points(inst)
    for s in range(inst.nscen):
        X, Q = [], []
        for x in pts:
            v = recourse_enum(inst, s, x)
            if v != float("inf"):
                X.append(x)
                Q.append(v)
        sets.append((np.array(X), np.array(Q)))
    n, S = inst.nx, inst.nscen
    sizes = [X.shape[0] for X, _ in sets]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    nw = int(offs[-1])
    ncols = nw + n
    A_eq, b_eq = [], []
    for s in range(S):
        row = np.zeros(ncols)
        row[offs[s] : offs[s + 1]] = 1.0
        A_eq.append(row)
        b_eq.append(1.0)
        X, _ = sets[s]
        for j in range(n):
            row = np.zeros(ncols)
            row[offs[s] : offs[s + 1]] = X[:, j]
            row[nw + j] = -1.0
            A_eq.append(row)
            b_eq.append(0.0)
    c = np.zeros(ncols)
    for s in range(S):
        X, Q = sets[s]
        c[offs[s] : offs[s + 1]] = inst.scenarios[s].prob * (X @ inst.c + Q)
    bounds = [(0, None)] * nw + [(None, None)] * n
    res = sopt.linprog(c, A_eq=np.array(A_eq), b_eq=np.array(b_eq), bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


def test_eval_dual_zero_is_perfect_information(t1):
    val, pts = eval_dual(t1, np.zeros((2, 1)))
    # each scenario alone picks x=1, costing 1 with no recourse
    assert val == pytest.approx(1.0)
    assert len(pts) == 2
    assert perfect_information_bound(t1) == pytest.approx(1.0)


def test_eval_dual_validates_multipliers(t1):
    with pytest.raises(InstanceError, match="shape"):
        eval_dual(t1, np.zeros((3, 1)))
    with pytest.raises(InstanceError, match="p_s lam_s"):
        eval_dual(t1, np.ones((2, 1)))


def test_eval_dual_weak_duality_samples(t1):
    z_ip = z_ip_enum(t1)
    rng = np.random.default_rng(0)
    for _ in range(8):
        lam0 = rng.uniform(-3, 3, size=1)
        lams = np.stack([lam0, -lam0])  # probabilities are 1/2 each
        val, _ = eval_dual(t1, lams)
        assert val <= z_ip + 1e-9


def test_toy_dual_maximum(t1):
    res = maximize_dual(t1)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-7)
    assert res.upper <= res.value + 1e-6 * (1 + abs(res.value))


@pytest.mark.parametrize("seed", range(8))
def test_dual_value_matches_convexified_primal(seed):
    inst = make_tiny(seed)
    res = maximize_dual(inst)
    assert res.converged, f"seed {seed} did not converge"
    ref = convexified_reference(inst)
    mine = convexified_primal_value(inst)
    assert mine == pytest.approx(ref, abs=1e-6)
    assert res.value == pytest.approx(ref, abs=1e-6 * (1 + abs(ref)))


@pytest.mark.parametrize("seed", range(8))
def test_bound_chain_theorem_links(seed):
    # z_PI <= z_D <= z_IP and z_LP <= z_D hold unconditionally
    inst = make_tiny(seed)
    lp = solve_lp(build_extensive_form(inst).program)
    assert lp.status == OPTIMAL
    z_lp = lp.objective
    z_pi = perfect_information_bound(inst)
    assert z_pi == pytest.approx(z_pi_enum(inst), abs=1e-7)
    z_d = maximize_dual(inst).value
    z_ip = z_ip_enum(inst)
    assert z_pi <= z_d + 1e-7 * (1 + abs(z_d))
    assert z_lp <= z_d + 1e-7 * (1 + abs(z_d))
    assert z_d <= z_ip + 1e-7 * (1 + abs(z_ip))


def test_lp_vs_pi_not_ordered_in_general():
    """The LP bound keeps nonanticipativity but drops integrality while
    the perfect-information bound does the reverse; neither dominates.
    This instance has z_LP = 6 > z_PI = 3 (confirmed against scipy), so
    any ordering claim between the two must be suite-specific."""
    inst = make_tiny(2)
    lp = solve_lp(build_extensive_form(inst).program)
    z_pi = perfect_information_bound(inst)
    assert lp.objective == pytest.approx(6.0)
    assert z_pi == pytest.approx(3.0)


def test_dual_ascent_determinism():
    inst = make_tiny(5)
    a = maximize_dual(inst)
    b = maximize_dual(inst)
    assert a.value == b.value
    assert a.iterations == b.iterations
    assert a.lams.tobytes() == b.lams.tobytes()
    assert a.history == b.history

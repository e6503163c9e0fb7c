import random

import numpy as np
import pytest

from _oracles import linprog_reference, milp_reference
from sipcuts import optbase
from sipcuts.optbase import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    LIMIT,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MipProgram,
    lp_relaxation,
    solve_lp,
    solve_mip,
    to_lp_text,
)
from sipcuts.sparse import CooMatrix

TOL = 1e-7


def _lp(c, dense, senses, rhs, lb, ub, maximize=False):
    dense = np.asarray(dense, dtype=float)
    return LinearProgram(
        c=np.asarray(c, dtype=float),
        A=CooMatrix.from_dense(dense),
        senses=np.asarray(senses, dtype=np.int8),
        rhs=np.asarray(rhs, dtype=float),
        lb=np.asarray(lb, dtype=float),
        ub=np.asarray(ub, dtype=float),
        maximize=maximize,
    )


def _random_lp(seed, bounded=False, maximize=False):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = rng.randint(1, 5)
    dense = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.7:
                dense[i, j] = rng.randint(-4, 4)
    c = np.array([float(rng.randint(-5, 5)) for _ in range(n)])
    senses = np.array(
        [EQ if rng.random() < 0.2 else (GE if rng.random() < 0.5 else LE) for _ in range(m)],
        dtype=np.int8,
    )
    rhs = np.array([float(rng.randint(-6, 6)) for _ in range(m)])
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    for j in range(n):
        kind = rng.randint(0, 3) if not bounded else 0
        if kind == 0:
            lb[j], ub[j] = 0.0, float(rng.randint(1, 6))
        elif kind == 1:
            lb[j], ub[j] = float(-rng.randint(1, 4)), float(rng.randint(1, 4))
        elif kind == 2:
            lb[j], ub[j] = -np.inf, np.inf
        else:
            lb[j], ub[j] = 0.0, np.inf
    return _lp(c, dense, senses, rhs, lb, ub, maximize=maximize)


# ---------------------------------------------------------------- hand cases


def test_lp_simple_box_edge():
    lp = _lp([-1.0, -1.0], [[1.0, 1.0]], [LE], [1.0], [0, 0], [1, 1])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert abs(out.objective + 1.0) < TOL


def test_lp_equality_with_negative_lower_bound():
    lp = _lp([1.0, 0.0], [[1.0, 1.0]], [EQ], [1.0], [-5, 0], [5, 0.25])
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert abs(out.objective - 0.75) < TOL


def test_lp_maximize_and_constant_term():
    lp = _lp([2.0, 1.0], [[1.0, 1.0]], [LE], [4.0], [0, 0], [3, 3], maximize=True)
    lp.c0 = 10.0
    out = solve_lp(lp)
    assert out.status == OPTIMAL
    assert abs(out.objective - 17.0) < TOL


def test_lp_infeasible_farkas_certificate():
    lp = _lp([0.0], [[1.0]], [GE], [2.0], [0.0], [1.0])
    out = solve_lp(lp)
    assert out.status == INFEASIBLE
    y = out.ray
    assert y is not None and y[0] > 1e-9


def test_lp_unbounded_ray():
    lp = LinearProgram(
        c=np.array([-1.0]),
        A=CooMatrix.empty(0, 1),
        senses=np.zeros(0, dtype=np.int8),
        rhs=np.zeros(0),
        lb=np.array([0.0]),
        ub=np.array([np.inf]),
    )
    out = solve_lp(lp)
    assert out.status == UNBOUNDED
    assert out.ray is not None and out.ray[0] > 0


def test_lp_iteration_limit_reports_limit():
    lp = _random_lp(3, bounded=True)
    out = solve_lp(lp, itmax=1)
    assert out.status in (LIMIT, OPTIMAL)  # tiny LPs may finish in one pivot
    big = _lp(
        np.ones(6),
        np.eye(6),
        [GE] * 6,
        np.full(6, 0.5),
        np.zeros(6),
        np.ones(6),
    )
    assert solve_lp(big, itmax=1).status == LIMIT


# ------------------------------------------------------- dual conventions


def _check_dual_certificate(lp, out):
    """Strong duality with bound terms: c'x* = y'rhs + sum_j bound term of
    the reduced cost d = c - A'y; also sign conditions per row sense."""
    y = out.duals
    sign = -1.0 if lp.maximize else 1.0
    c = sign * lp.c
    yi = sign * y
    for i in range(lp.rhs.size):
        if lp.senses[i] == GE:
            assert yi[i] >= -1e-7
        elif lp.senses[i] == LE:
            assert yi[i] <= 1e-7
    d = c - lp.A.to_dense().T @ yi
    total = float(yi @ lp.rhs)
    for j in range(lp.c.size):
        if d[j] > 1e-9:
            assert np.isfinite(lp.lb[j])
            total += d[j] * lp.lb[j]
        elif d[j] < -1e-9:
            assert np.isfinite(lp.ub[j])
            total += d[j] * lp.ub[j]
    assert abs(total - sign * (out.objective - lp.c0)) <= 1e-6 * (1 + abs(total))


def _check_farkas(lp, out):
    # infeasibility certificates are objective-free, no maximize flip
    yi = np.asarray(out.ray)
    for i in range(lp.rhs.size):
        if lp.senses[i] == GE:
            assert yi[i] >= -1e-7
        elif lp.senses[i] == LE:
            assert yi[i] <= 1e-7
    w = lp.A.to_dense().T @ yi
    best = 0.0
    for j in range(lp.c.size):
        if w[j] > 1e-9:
            assert np.isfinite(lp.ub[j])
            best += w[j] * lp.ub[j]
        elif w[j] < -1e-9:
            assert np.isfinite(lp.lb[j])
            best += w[j] * lp.lb[j]
    gap = float(yi @ lp.rhs) - best
    assert gap > 1e-7 * (1 + abs(best))


def _check_ray(lp, out):
    r = np.asarray(out.ray)
    sign = -1.0 if lp.maximize else 1.0
    assert float(sign * lp.c @ r) < -1e-9
    ar = lp.A.to_dense() @ r
    for i in range(lp.rhs.size):
        if lp.senses[i] == GE:
            assert ar[i] >= -1e-7
        elif lp.senses[i] == LE:
            assert ar[i] <= 1e-7
        else:
            assert abs(ar[i]) <= 1e-7
    for j in range(lp.c.size):
        if r[j] > 1e-9:
            assert lp.ub[j] == np.inf
        elif r[j] < -1e-9:
            assert lp.lb[j] == -np.inf


def _row_rescaled(lp, seed):
    """Same feasible set and objective, rows blown up to a wide range."""
    rng = random.Random(seed)
    dense = lp.A.to_dense().copy()
    rhs = lp.rhs.copy()
    for i in range(rhs.size):
        f = 10.0 ** rng.randint(-4, 5)
        dense[i] *= f
        rhs[i] *= f
    return _lp(lp.c, dense, lp.senses, rhs, lp.lb, lp.ub, maximize=lp.maximize)


@pytest.mark.parametrize("seed", range(25))
def test_lp_badly_scaled_rows_match_reference(seed):
    lp = _row_rescaled(_random_lp(seed, bounded=True), seed)
    out = solve_lp(lp)
    ref_status, ref_obj = linprog_reference(lp)
    assert out.status == ref_status, f"seed {seed}: {out.status} vs {ref_status}"
    if ref_status == OPTIMAL:
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))
        _check_dual_certificate(lp, out)


def test_pow2_scales_shrink_coefficient_range():
    from sipcuts import _simplex

    rng = random.Random(5)
    A = np.array([[10.0 ** rng.randint(-4, 5) * rng.randint(1, 9) for _ in range(6)] for _ in range(5)])
    R, C = _simplex._pow2_scales(A)
    assert np.all(2.0 ** np.round(np.log2(R)) == R)
    assert np.all(2.0 ** np.round(np.log2(C)) == C)
    S = np.abs(A * np.outer(R, C))
    before = np.abs(A)
    ratio = lambda M: M[M > 0].max() / M[M > 0].min()
    assert ratio(S) < ratio(before)


def test_unbounded_ray_validator_accepts_only_real_certificates():
    from sipcuts import _simplex

    A = np.array([[1.0, -1.0]])
    sense = np.array([0], dtype=np.int8)  # x0 - x1 <= 1
    c = np.array([0.0, -1.0])
    lb = np.zeros(2)
    ub = np.array([np.inf, np.inf])
    good = np.array([1.0, 1.0])  # row stays put, objective descends
    assert _simplex._ray_certifies(A, sense, c, lb, ub, good)
    # grows the <= row
    assert not _simplex._ray_certifies(A, sense, c, lb, ub, np.array([1.0, 0.0]))
    # exits the box through a finite lower bound
    assert not _simplex._ray_certifies(A, sense, c, lb, ub, np.array([-1.0, -1.0]))
    # does not descend
    assert not _simplex._ray_certifies(A, sense, -c, lb, ub, good)
    # moves through a finite upper bound
    assert not _simplex._ray_certifies(A, sense, c, lb, np.array([np.inf, 5.0]), good)
    assert not _simplex._ray_certifies(A, sense, c, lb, ub, np.zeros(2))


def test_farkas_validator_accepts_only_real_certificates():
    from sipcuts import _simplex

    # x >= 2 and x <= 1 cannot both hold inside [0, 10]
    A = np.array([[1.0], [1.0]])
    sense = np.array([1, 0], dtype=np.int8)
    b = np.array([2.0, 1.0])
    lb = np.zeros(1)
    ub = np.array([10.0])
    assert _simplex._farkas_certifies(A, b, sense, lb, ub, np.array([1.0, -1.0]))
    # the >= row alone proves nothing: the box absorbs it
    assert not _simplex._farkas_certifies(A, b, sense, lb, ub, np.array([1.0, 0.0]))
    # wrong sign pattern clamps away to nothing
    assert not _simplex._farkas_certifies(A, b, sense, lb, ub, np.array([-1.0, 1.0]))
    assert not _simplex._farkas_certifies(A, b, sense, lb, ub, np.zeros(2))


@pytest.mark.parametrize("seed", range(60))
def test_lp_against_reference(seed):
    lp = _random_lp(seed, maximize=seed % 5 == 0)
    out = solve_lp(lp)
    ref_status, ref_obj = linprog_reference(lp)
    assert out.status == ref_status, f"seed {seed}: {out.status} vs {ref_status}"
    if ref_status == OPTIMAL:
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))
        _check_dual_certificate(lp, out)
        x = out.x
        assert np.all(x >= lp.lb - 1e-7) and np.all(x <= lp.ub + 1e-7)
    elif ref_status == INFEASIBLE:
        _check_farkas(lp, out)
    else:
        _check_ray(lp, out)


def test_lp_determinism():
    lp = _random_lp(11, bounded=True)
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.duals.tobytes() == b.duals.tobytes()
    assert a.objective == b.objective


# ------------------------------------------------------------------- MIPs


def _random_mip(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    dense = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if rng.random() < 0.8:
                dense[i, j] = rng.randint(-3, 3)
    c = np.array([float(rng.randint(-5, 5)) for _ in range(n)])
    senses = np.array(
        [EQ if rng.random() < 0.15 else (GE if rng.random() < 0.5 else LE) for _ in range(m)],
        dtype=np.int8,
    )
    rhs = np.array([float(rng.randint(-4, 4)) for _ in range(m)])
    lb = np.zeros(n)
    ub = np.array([float(rng.randint(1, 3)) for _ in range(n)])
    is_int = np.array([rng.random() < 0.8 for _ in range(n)])
    return MipProgram(
        c=c,
        A=CooMatrix.from_dense(dense),
        senses=senses,
        rhs=rhs,
        lb=lb,
        ub=ub,
        is_int=is_int,
    )


@pytest.mark.parametrize("seed", range(40))
def test_mip_against_reference(seed):
    mip = _random_mip(seed)
    out = solve_mip(mip)
    ref_status, ref_obj = milp_reference(mip)
    assert out.status == ref_status, f"seed {seed}: {out.status} vs {ref_status}"
    if ref_status == OPTIMAL:
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))
        x = out.x
        assert np.all(np.abs(x[mip.is_int] - np.round(x[mip.is_int])) <= 1e-6)
        dense = mip.A.to_dense()
        ax = dense @ x
        for i in range(mip.rhs.size):
            if mip.senses[i] == GE:
                assert ax[i] >= mip.rhs[i] - 1e-6 * (1 + abs(mip.rhs[i]))
            elif mip.senses[i] == LE:
                assert ax[i] <= mip.rhs[i] + 1e-6 * (1 + abs(mip.rhs[i]))
            else:
                assert abs(ax[i] - mip.rhs[i]) <= 1e-6 * (1 + abs(mip.rhs[i]))


def test_mip_maximize_knapsack():
    mip = MipProgram(
        c=np.array([5.0, 4.0, 3.0]),
        A=CooMatrix.from_dense([[2.0, 3.0, 1.0]]),
        senses=np.array([LE], dtype=np.int8),
        rhs=np.array([5.0]),
        lb=np.zeros(3),
        ub=np.ones(3),
        is_int=np.ones(3, dtype=bool),
        maximize=True,
    )
    out = solve_mip(mip)
    assert out.status == OPTIMAL
    assert abs(out.objective - 9.0) < TOL


def test_mip_incumbent_pool_improves_monotonically():
    mip = _random_mip(17)
    out = solve_mip(mip)
    assert out.status == OPTIMAL
    vals = [v for _, v in out.incumbent_pool]
    assert vals, "optimal solve must have at least one incumbent"
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - out.objective) < TOL
    for xs, v in out.incumbent_pool:
        assert np.all(np.abs(xs[mip.is_int] - np.round(xs[mip.is_int])) <= 1e-9)
        assert abs(float(mip.c @ xs) - v) < 1e-9


def test_mip_determinism():
    mip = _random_mip(23)
    a = solve_mip(mip)
    b = solve_mip(mip)
    assert a.x.tobytes() == b.x.tobytes()
    assert a.objective == b.objective
    assert a.node_count == b.node_count
    assert len(a.incumbent_pool) == len(b.incumbent_pool)
    for (xa, va), (xb, vb) in zip(a.incumbent_pool, b.incumbent_pool):
        assert xa.tobytes() == xb.tobytes() and va == vb


def test_mip_solves_one_kernel_lp_per_node(monkeypatch):
    calls = []
    kernel = optbase._solve_dense

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optbase, "_solve_dense", counting)
    out = solve_mip(_random_mip(17))
    assert out.status == OPTIMAL and out.node_count > 1
    assert len(calls) == out.node_count


def test_mip_node_limit_reports_limit_with_valid_bound():
    # knapsack-style MIP needing several nodes
    rng = random.Random(99)
    n = 10
    w = np.array([float(rng.randint(2, 9)) for _ in range(n)])
    v = np.array([float(rng.randint(2, 9)) for _ in range(n)])
    mip = MipProgram(
        c=v,
        A=CooMatrix.from_dense(w.reshape(1, -1)),
        senses=np.array([LE], dtype=np.int8),
        rhs=np.array([float(int(w.sum() // 2))]),
        lb=np.zeros(n),
        ub=np.ones(n),
        is_int=np.ones(n, dtype=bool),
        maximize=True,
    )
    full = solve_mip(mip)
    assert full.status == OPTIMAL
    capped = solve_mip(mip, node_limit=2)
    assert capped.status == LIMIT
    # for maximization the reported bound is an upper bound on the optimum
    assert capped.bound >= full.objective - 1e-9


def test_lp_relaxation_drops_integrality():
    mip = _random_mip(3)
    lp = lp_relaxation(mip)
    assert not hasattr(lp, "is_int") or not isinstance(lp, MipProgram)
    out = solve_lp(lp)
    ref_status, ref_obj = linprog_reference(lp)
    assert out.status == ref_status
    if ref_status == OPTIMAL:
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))


def test_to_lp_text_sections():
    mip = _random_mip(5)
    text = to_lp_text(mip)
    assert "Minimize" in text or "Maximize" in text
    assert "Subject To" in text
    assert "Bounds" in text
    assert "End" in text

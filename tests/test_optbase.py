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
    solve_lp,
    solve_mip,
)

TOL = 1e-7


def _lp(c, dense, senses, rhs, lb, ub, maximize=False):
    return LinearProgram(
        c=np.asarray(c, dtype=float),
        A=dense,
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
    # the constant 10 is the cost of a column fixed at 1
    lp = _lp([2.0, 1.0, 10.0], [[1.0, 1.0, 0.0]], [LE], [4.0], [0, 0, 1], [3, 3, 1], maximize=True)
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
        A=np.zeros((0, 1)),
        senses=np.zeros(0, dtype=np.int8),
        rhs=np.zeros(0),
        lb=np.array([0.0]),
        ub=np.array([np.inf]),
    )
    out = solve_lp(lp)
    assert out.status == UNBOUNDED
    assert out.ray is not None and out.ray[0] > 0


@pytest.mark.parametrize("senses", [[7], [-1], [1.5], ["<="], [np.nan]])
def test_lp_rejects_unknown_sense_codes(senses):
    # max x, 0 <= x <= 10, one row x [?] 2: only LE, GE and EQ are senses
    with pytest.raises(ValueError, match="senses must be"):
        LinearProgram(
            c=np.array([1.0]),
            A=[[1.0]],
            senses=senses,
            rhs=np.array([2.0]),
            lb=np.array([0.0]),
            ub=np.array([10.0]),
            maximize=True,
        )


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
    assert abs(total - sign * out.objective) <= 1e-6 * (1 + abs(total))


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


def _check_against_reference(lp):
    out = solve_lp(lp)
    ref_status, ref_obj = linprog_reference(lp)
    assert out.status == ref_status, f"{out.status} vs {ref_status}"
    if ref_status == OPTIMAL:
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))
        _check_dual_certificate(lp, out)
        x = out.x
        assert np.all(x >= lp.lb - 1e-7) and np.all(x <= lp.ub + 1e-7)
    elif ref_status == INFEASIBLE:
        _check_farkas(lp, out)
    else:
        _check_ray(lp, out)


@pytest.mark.parametrize("seed", range(60))
def test_lp_against_reference(seed):
    _check_against_reference(_random_lp(seed, maximize=seed % 5 == 0))


def _beale():
    """Beale's LP, on which Dantzig's rule with textbook tie-breaking
    cycles; its start vertex is degenerate. Optimum -1.25 at x = (1, 0, 1, 0)."""
    dense = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    return _lp([-0.75, 20.0, -0.5, 6.0], dense, [LE] * 3, [0.0, 0.0, 1.0], np.zeros(4), np.full(4, np.inf))


def test_bland_rule_from_the_first_degenerate_pivot_matches_reference(monkeypatch):
    from sipcuts import _simplex

    dantzig = _kernel(_beale())
    monkeypatch.setattr(_simplex, "_BLAND_AFTER", 0)
    bland = _kernel(_beale())
    # Beale's LP is degenerate from its first pivot: Bland's rule, lowest
    # index entering and leaving, takes its own pinned path there
    assert (dantzig[5], bland[5]) == (4, 8)
    assert bland[6][0].tolist() == [2, 4, 0]
    for lp in [_beale()] + [_random_lp(seed, maximize=seed % 5 == 0) for seed in range(60)]:
        _check_against_reference(lp)


#: (parent, child) LPs with tied choices. The child is solved cold and warm
#: from the parent's basis; each solve's x and basis are pinned, so a change
#: in the Dantzig rule or in either ratio test's tie rule shows here.
_TIES = {
    # cold: x0 and x1 tie on |d| and the lower index enters; warm: the new
    # row's ratio test ties on |d/alpha| and on |alpha|, the lower index enters
    "dantzig": (
        _lp([-1, -1], [[1, -1]], [LE], [5], [0, 0], [3, 3]),
        _lp([-1, -1], [[1, -1], [1, 1]], [LE, LE], [5, 4], [0, 0], [3, 3]),
        ([3.0, 1.0], [2, 1]),
        ([1.0, 3.0], [2, 0]),
    ),
    # cold: three rows tie in the primal ratio test; the largest |du| leaves,
    # the lower position among the two rows with |du| = 2
    "primal_ratio": (
        _lp([-1], [[1]], [LE], [2], [0], [10]),
        _lp([-1], [[1], [2], [2]], [LE, LE, LE], [2, 4, 4], [0], [10]),
        ([2.0], [1, 0, 3]),
        ([2.0], [0, 2, 3]),
    ),
    # warm: x0 and x1 tie on |d/alpha| = 1; the larger |alpha| enters
    "dual_ratio": (
        _lp([1, 2], [[1, -1]], [LE], [5], [0, 0], [5, 5]),
        _lp([1, 2], [[1, -1], [1, 2]], [LE, GE], [5, 2], [0, 0], [5, 5]),
        ([0.0, 1.0], [2, 1]),
        ([0.0, 1.0], [2, 1]),
    ),
}


@pytest.mark.parametrize("case", sorted(_TIES))
def test_tie_rules_pick_the_pinned_vertex(case, core_calls):
    parent, child, cold_pin, warm_pin = _TIES[case]
    cold = _kernel(child)
    start = _kernel(parent)[6]
    del core_calls[:]
    warm = _kernel(child, warm=start)
    assert len(core_calls) == 1, "the warm attempt was accepted"
    for out, (x, basis) in ((cold, cold_pin), (warm, warm_pin)):
        assert out[0] == 0
        assert out[1].tolist() == x and out[6][0].tolist() == basis


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
        A=dense,
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
        A=[[2.0, 3.0, 1.0]],
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
        A=w.reshape(1, -1),
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


# --------------------------------------------------- branching preference


def _same_mip_outcome(a, b):
    assert (a.status, a.objective, a.node_count) == (b.status, b.objective, b.node_count)
    assert (a.x is None) == (b.x is None)
    if a.x is not None:
        assert a.x.tobytes() == b.x.tobytes()
    assert len(a.incumbent_pool) == len(b.incumbent_pool)
    for (xa, va), (xb, vb) in zip(a.incumbent_pool, b.incumbent_pool):
        assert xa.tobytes() == xb.tobytes() and va == vb


@pytest.mark.parametrize("seed", range(40))
def test_preference_covering_every_integer_column_keeps_the_default_rule(seed):
    mip = _random_mip(seed)
    _same_mip_outcome(solve_mip(mip, first=np.arange(mip.nvars)), solve_mip(mip))


def _branched_columns(first):
    """The nodes `best_bound_search` solves when every LP optimum is
    (0.5, 0.2) clipped to the node's box, column 0 being the more
    fractional one: per node after the root, the columns branched on."""
    seen = []

    def relax(lb, ub, warm):
        x = np.clip([0.5, 0.2], lb, ub)
        seen.append((lb, ub))
        return OPTIMAL, float(x.sum()), x, None

    def on_integral(x, val, lb, ub, inc):
        return (x, val) if val < inc else None

    status, x, val, _, _ = optbase.best_bound_search(
        np.zeros(2), np.ones(2), np.arange(2), relax, lambda b, inc: b >= inc, on_integral,
        first=first,
    )
    assert status == OPTIMAL and x.tolist() == [0.0, 0.0] and val == 0.0
    # per node after the root, the columns whose bounds were branched
    root_lb, root_ub = seen[0]
    return [np.flatnonzero((lb != root_lb) | (ub != root_ub)).tolist() for lb, ub in seen[1:]]


def test_preferred_column_is_branched_before_a_more_fractional_one():
    assert _branched_columns(None)[:2] == [[0], [0, 1]]
    # column 1 while it is fractional, then column 0 below it
    assert _branched_columns(np.array([1]))[:2] == [[1], [0, 1]]


def _wide_mip(seed):
    """Feasible 6x8 program, about 70% integer columns in [0, 3]; its
    trees run to a few dozen nodes, where `_random_mip`'s rarely pass 5."""
    rng = np.random.default_rng(seed)
    A = rng.integers(-3, 4, (6, 8)).astype(float)
    return MipProgram(
        c=rng.integers(-5, 6, 8).astype(float),
        A=A,
        senses=np.full(6, LE, dtype=np.int8),
        rhs=A @ rng.integers(0, 4, 8) + rng.integers(0, 3, 6),
        lb=np.zeros(8),
        ub=np.full(8, 3.0),
        is_int=rng.random(8) < 0.7,
    )


def test_mip_with_a_preference_against_reference():
    changed = 0
    for seed in range(40):
        mip = _wide_mip(seed)
        out = solve_mip(mip, first=np.arange(4, 8))
        ref_status, ref_obj = milp_reference(mip)
        assert out.status == ref_status == OPTIMAL, f"seed {seed}"
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj)), f"seed {seed}"
        changed += out.node_count != solve_mip(mip).node_count
    assert changed >= 3, "the preference should reshape some trees"


def test_mip_from_a_solved_root_matches_the_cold_tree(monkeypatch):
    calls = []
    kernel = optbase._solve_dense

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optbase, "_solve_dense", counting)
    for seed in range(40):
        mip = _random_mip(seed)
        root = solve_lp(mip)
        del calls[:]
        out = solve_mip(mip, root=root)
        assert len(calls) == out.node_count - 1, f"seed {seed}: the root LP was solved again"
        ref = solve_mip(mip)
        assert (out.status, out.objective, out.node_count) == (
            ref.status,
            ref.objective,
            ref.node_count,
        )
        assert len(out.incumbent_pool) == len(ref.incumbent_pool)
        for (xa, va), (xb, vb) in zip(out.incumbent_pool, ref.incumbent_pool):
            assert np.array_equal(xa, xb) and va == vb


def test_mip_hands_out_its_root_basis_and_starts_from_a_warm_one(core_calls):
    starts = 0
    for seed in range(40):
        mip = _random_mip(seed)
        if not optbase.root_is_relaxation(mip):
            continue
        out = solve_mip(mip)
        root = solve_lp(mip)
        assert (out.basis is None) == (root.basis is None)
        if out.basis is None:
            continue
        assert len(out.basis) == 2, "the inverse stays inside the tree"
        for a, b in zip(out.basis, root.basis):
            assert np.array_equal(a, b)
        # the root basis stays primal feasible under another objective
        flipped = MipProgram(
            c=-mip.c,
            A=mip.A.to_dense(),
            senses=mip.senses,
            rhs=mip.rhs,
            lb=mip.lb,
            ub=mip.ub,
            is_int=mip.is_int,
        )
        cold = solve_mip(flipped)
        del core_calls[:]
        warm = solve_mip(flipped, warm=out.basis)
        assert len(core_calls) == warm.node_count, "every node LP is one kernel attempt"
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
        # a solved root takes precedence over the warm start
        assert solve_mip(mip, root=root, warm=warm.basis).basis is root.basis
        starts += 1
    assert starts >= 10


def test_mip_ignores_a_root_whose_box_rounds():
    mip = _random_mip(17)
    wrong = optbase.SolveOutcome(status=INFEASIBLE)
    assert solve_mip(mip, root=wrong).status == INFEASIBLE  # a same-box root is trusted
    j = int(np.flatnonzero(mip.is_int)[0])
    mip.ub[j] = 2.5
    ref = solve_mip(mip)
    assert ref.status == OPTIMAL
    _same_mip_outcome(solve_mip(mip, root=wrong), ref)
    mip.ub[j] = 2.0
    _same_mip_outcome(solve_mip(mip, root=optbase.SolveOutcome(status=LIMIT)), solve_mip(mip))


def test_mip_with_no_integer_in_a_box_is_infeasible():
    # no integer lies in [0.3, 0.7], with rows or without
    box = dict(c=[1.0, 1.0], lb=[0.3, 0.0], ub=[0.7, 5.0], is_int=[True, False])
    rowless = MipProgram(A=np.zeros((0, 2)), senses=[], rhs=[], **box)
    assert solve_mip(rowless).status == INFEASIBLE
    mip = MipProgram(A=[[1.0, 1.0]], senses=[GE], rhs=[0.0], **box)
    out = solve_mip(mip)
    assert out.status == INFEASIBLE and out.x is None


def test_lp_relaxation_drops_integrality():
    # `solve_lp` solves a MipProgram as its LP relaxation, and so does the
    # reference, which ignores `is_int`
    mip = _random_mip(3)
    assert mip.is_int.any()
    out = solve_lp(mip)
    ref_status, ref_obj = linprog_reference(mip)
    assert out.status == ref_status
    if ref_status == OPTIMAL:
        assert abs(out.objective - ref_obj) <= 1e-6 * (1 + abs(ref_obj))


# ------------------------------------------------------------ warm starts


#: row ranges of tall LPs: one under the block-form cutoff, with a dense
#: inverse, and a master tall enough for block pivots
TALL, MASTER = (64, 97), (200, 321)


def _bounded_lp(seed, tall=None):
    """Seeded feasible LP on a finite box: every row holds at an anchor
    point inside the box, with slack on the inequalities. A tall one is
    shaped like a cut master, `tall` = (low, high) rows of GE cuts on 8
    to 20 columns, so its bases are mostly slack, like a master's."""
    rng = np.random.default_rng(seed)
    if tall:
        m, n = int(rng.integers(*tall)), int(rng.integers(8, 21))
    else:
        m, n = int(rng.integers(4, 9)), int(rng.integers(6, 13))
    dense = np.round(rng.uniform(-5.0, 5.0, (m, n)))
    ub = rng.integers(2, 8, n).astype(float)
    anchor = rng.uniform(0.1, 0.9, n) * ub
    senses = rng.choice(np.array([LE, GE, EQ], dtype=np.int8), m, p=[0.45, 0.45, 0.1])
    if tall:
        senses[:] = GE  # cut rows; equalities would pin x* to the anchor
    gap = rng.uniform(0.5, 3.0, m)
    rhs = dense @ anchor + np.where(senses == LE, gap, np.where(senses == GE, -gap, 0.0))
    c = np.round(rng.uniform(-5.0, 5.0, n))
    return _lp(c, dense, senses, rhs, np.zeros(n), ub), anchor


def _kernel(lp, warm=None, prepped=False):
    """`solve_dense` on `lp`; `prepped` builds the program's set-up first,
    as `solve_mip` does, so that a small optimal solve hands on its inverse."""
    from sipcuts import _simplex

    dense = lp.A.to_dense()
    prep = _simplex.prepare(dense, lp.rhs, lp.senses) if prepped else None
    return _simplex.solve_dense(dense, lp.rhs, lp.senses, lp.c, lp.lb, lp.ub, warm=warm, prep=prep)


@pytest.fixture
def core_calls(monkeypatch):
    """Counts `_simplex._lp_core` attempts; each solve makes one per attempt."""
    from sipcuts import _simplex

    calls = []
    core = _simplex._lp_core

    def counting(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(_simplex, "_lp_core", counting)
    return calls


def _assert_matches_cold_and_reference(lp, warm_out):
    cold = _kernel(lp)
    ref_status, ref_obj = linprog_reference(lp)
    status = (OPTIMAL, INFEASIBLE, UNBOUNDED)[warm_out[0]]
    assert cold[0] == warm_out[0] and status == ref_status
    if ref_status == OPTIMAL:
        for z in (cold[2], ref_obj):
            assert abs(warm_out[2] - z) <= 1e-9 * (1.0 + abs(z))


def _check_warm_bound_change(lp, core_calls):
    parent = _kernel(lp)
    assert parent[0] == 0 and parent[6] is not None
    basis = parent[6][0]
    x = parent[1]
    frac = [j for j in basis if j < lp.nvars and abs(x[j] - np.round(x[j])) > 1e-6]
    assert frac, "every seeded parent has a fractional basic column"
    j = int(frac[0])
    for side in ("down", "up"):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        if side == "down":
            ub[j] = np.floor(x[j])
        else:
            lb[j] = np.ceil(x[j])
        child = _lp(lp.c, lp.A.to_dense(), lp.senses, lp.rhs, lb, ub)
        del core_calls[:]
        out = _kernel(child, warm=parent[6])
        assert len(core_calls) == 1, "the warm attempt was accepted"
        _assert_matches_cold_and_reference(child, out)


@pytest.mark.parametrize("seed", range(20))
def test_warm_bound_change_matches_cold_and_reference(seed, core_calls):
    _check_warm_bound_change(_bounded_lp(seed)[0], core_calls)


@pytest.mark.parametrize("seed", range(10))
def test_tall_warm_bound_change_matches_cold_and_reference(seed, core_calls):
    _check_warm_bound_change(_bounded_lp(seed, TALL)[0], core_calls)


@pytest.mark.parametrize("seed", range(5))
def test_master_warm_bound_change_matches_cold_and_reference(seed, core_calls):
    _check_warm_bound_change(_bounded_lp(seed, MASTER)[0], core_calls)


def _check_warm_appended_rows(lp, anchor, seed, core_calls):
    parent = _kernel(lp)
    x = parent[1]
    # rows through the segment from x* to the anchor cut x* off and keep the anchor
    rng = np.random.default_rng(100 + seed)
    rows, rhs = [], []
    for _ in range(3):
        a = np.round((anchor - x) * 4.0 + rng.uniform(-0.5, 0.5, x.size))
        if a @ anchor > a @ x + 1e-3:
            rows.append(a)
            rhs.append(a @ x + 0.5 * (a @ anchor - a @ x))
    assert rows
    child = _lp(
        lp.c,
        np.vstack([lp.A.to_dense(), rows]),
        np.concatenate([lp.senses, np.full(len(rows), GE, dtype=np.int8)]),
        np.concatenate([lp.rhs, rhs]),
        lp.lb,
        lp.ub,
    )
    del core_calls[:]
    out = _kernel(child, warm=parent[6])
    assert len(core_calls) == 1
    assert out[6] is not None and out[6][0].size == child.nrows
    _assert_matches_cold_and_reference(child, out)


@pytest.mark.parametrize("seed", range(20))
def test_warm_appended_rows_match_cold_and_reference(seed, core_calls):
    _check_warm_appended_rows(*_bounded_lp(seed), seed, core_calls)


@pytest.mark.parametrize("seed", range(10))
def test_tall_warm_appended_rows_match_cold_and_reference(seed, core_calls):
    _check_warm_appended_rows(*_bounded_lp(seed, TALL), seed, core_calls)


@pytest.mark.parametrize("seed", range(5))
def test_master_warm_appended_rows_match_cold_and_reference(seed, core_calls):
    _check_warm_appended_rows(*_bounded_lp(seed, MASTER), seed, core_calls)


def _free_lp(seed):
    """`_bounded_lp(seed)` with every column free and its box written as
    two rows, plus two cost-free free columns boxed in [-2, 2] by rows of
    their own. Those two stay nonbasic and free at the optimum, so a warm
    re-solve starts with free columns in the dual ratio test."""
    lp, anchor = _bounded_lp(seed)
    n, k = lp.nvars, 2
    eye, zero = np.eye(n + k), np.zeros((lp.nrows, k))
    dense = np.vstack([np.hstack([lp.A.to_dense(), zero]), eye, eye])
    senses = np.concatenate([lp.senses, np.full(n + k, LE), np.full(n + k, GE)]).astype(np.int8)
    rhs = np.concatenate([lp.rhs, lp.ub, np.full(k, 2.0), lp.lb, np.full(k, -2.0)])
    c = np.concatenate([lp.c, np.zeros(k)])
    free = np.full(n + k, np.inf)
    anchor = np.concatenate([anchor, np.random.default_rng(1000 + seed).uniform(-1.5, 1.5, k)])
    return _lp(c, dense, senses, rhs, -free, free), anchor


@pytest.mark.parametrize("seed", range(20))
def test_free_warm_bound_change_matches_cold_and_reference(seed, core_calls):
    _check_warm_bound_change(_free_lp(seed)[0], core_calls)


@pytest.mark.parametrize("seed", range(20))
def test_free_warm_appended_rows_match_cold_and_reference(seed, core_calls):
    lp, anchor = _free_lp(seed)
    parent = _kernel(lp)
    _check_warm_appended_rows(lp, anchor, seed, core_calls)
    # a row on the last, nonbasic free column alone: only that column can enter
    j = lp.nvars - 1
    assert parent[6][1][j] == 3
    child = _lp(
        lp.c,
        np.vstack([lp.A.to_dense(), np.eye(lp.nvars)[j]]),
        np.concatenate([lp.senses, [GE]]).astype(np.int8),
        np.concatenate([lp.rhs, [1.0]]),
        lp.lb,
        lp.ub,
    )
    del core_calls[:]
    out = _kernel(child, warm=parent[6])
    assert len(core_calls) == 1, "the warm attempt was accepted"
    _assert_matches_cold_and_reference(child, out)


def _check_warm_infeasible_child(lp, core_calls):
    from sipcuts import _simplex

    parent = _kernel(lp)
    # sum x >= sum ub + 1 cannot hold inside the box
    dense = np.vstack([lp.A.to_dense(), np.ones(lp.nvars)])
    senses = np.concatenate([lp.senses, [GE]]).astype(np.int8)
    rhs = np.concatenate([lp.rhs, [lp.ub.sum() + 1.0]])
    del core_calls[:]
    out = _simplex.solve_dense(dense, rhs, senses, lp.c, lp.lb, lp.ub, warm=parent[6])
    assert len(core_calls) == 1
    assert out[0] == _simplex.INFEASIBLE and out[6] is None
    assert _simplex._farkas_certifies(dense, rhs, senses, lp.lb, lp.ub, out[4])


@pytest.mark.parametrize("seed", range(10))
def test_warm_infeasible_child_returns_certified_ray(seed, core_calls):
    _check_warm_infeasible_child(_bounded_lp(seed)[0], core_calls)


@pytest.mark.parametrize("seed", range(5))
def test_master_warm_infeasible_child_returns_certified_ray(seed, core_calls):
    _check_warm_infeasible_child(_bounded_lp(seed, MASTER)[0], core_calls)


def _same_output(a, b):
    assert a[0] == b[0] and a[2] == b[2] and a[5] == b[5]
    for u, v in zip(a[1:2] + a[3:5], b[1:2] + b[3:5]):
        assert u.tobytes() == v.tobytes()


@pytest.mark.parametrize("rows", [None, MASTER], ids=["small", "master"])
def test_warm_start_primal_feasible_only_runs_primal_phase_2(rows, core_calls):
    # the parent's optimal basis stays primal feasible under the flipped
    # objective, and is not dual feasible there
    lp, _ = _bounded_lp(3, rows)
    parent = _kernel(lp)
    flipped = _lp(-lp.c, lp.A.to_dense(), lp.senses, lp.rhs, lp.lb, lp.ub)
    cold = _kernel(flipped)
    del core_calls[:]
    out = solve_lp(flipped, warm=parent[6])
    assert len(core_calls) == 1, "the warm attempt was accepted"
    assert out.status == OPTIMAL
    assert abs(out.objective - cold[2]) <= 1e-9 * (1.0 + abs(cold[2]))
    _check_dual_certificate(flipped, out)


@pytest.mark.parametrize("rows", [None, MASTER], ids=["small", "master"])
def test_warm_start_neither_primal_nor_dual_feasible_falls_back_to_cold(rows, core_calls):
    lp, _ = _bounded_lp(3, rows)
    parent = _kernel(lp)
    basis, x = parent[6][0], parent[1]
    # push the basic slack of an inequality row 0.5 past its bound: only
    # that basic value moves, so the start is primal infeasible as well
    act = lp.A.to_dense() @ x
    slack = [j - lp.nvars for j in basis if j >= lp.nvars]
    r = next(r for r in slack if lp.senses[r] != EQ and abs(act[r] - lp.rhs[r]) > 1e-6)
    rhs = lp.rhs.copy()
    rhs[r] = act[r] - 0.5 if lp.senses[r] == LE else act[r] + 0.5
    flipped = _lp(-lp.c, lp.A.to_dense(), lp.senses, rhs, lp.lb, lp.ub)
    del core_calls[:]
    cold = _kernel(flipped)
    assert len(core_calls) == 1 and cold[0] == 0
    del core_calls[:]
    warm = _kernel(flipped, warm=parent[6])
    assert len(core_calls) == 2
    _same_output(warm, cold)


def test_warm_start_singular_basis_falls_back_to_cold(core_calls):
    # column 1 is twice column 0, so a basis holding both is singular
    lp = _lp([-1.0, -1.0, -1.0], [[1.0, 2.0, 1.0], [1.0, 2.0, -1.0]], [LE, LE], [4.0, 2.0], [0, 0, 0], [3, 3, 3])
    small = (np.array([0, 1]), np.array([0, 0, 1, 1, 1], dtype=np.int8))
    # the 40-row basis whose block has a zero column: its dense inverse is
    # finite, with entries near 2e15, and leaves the start's rows unmet
    A, _, basis = _singular_bases()
    m, n = A.shape
    tall = _lp(-np.ones(n), A, np.full(m, LE), np.full(m, 5.0), np.zeros(n), np.ones(n))
    vstat = np.ones(n + m, dtype=np.int8)
    vstat[basis] = 0
    for prog, start in ((lp, small), (tall, (basis, vstat))):
        del core_calls[:]
        cold = _kernel(prog)
        del core_calls[:]
        warm = _kernel(prog, warm=start)
        assert len(core_calls) == 2
        _same_output(warm, cold)
        assert warm[0] == 0


@pytest.mark.parametrize("status", [4, -1])
def test_warm_start_with_unknown_status_runs_cold(status, core_calls):
    # min x0 + x1  s.t.  x0 + x1 <= 10,  2 <= x0 <= 5,  3 <= x1 <= 6
    lp = _lp([1.0, 1.0], [[1.0, 1.0]], [LE], [10.0], [2.0, 3.0], [5.0, 6.0])
    basis, vstat = _kernel(lp)[6]
    vstat = vstat.copy()
    vstat[0] = status
    del core_calls[:]
    out = _kernel(lp, warm=(basis, vstat))
    assert len(core_calls) == 1, "only the cold attempt ran"
    assert out[0] == 0 and out[2] == 5.0
    assert np.all(out[1] >= lp.lb) and np.all(out[1] <= lp.ub)


def test_entering_slack_in_dual_and_primal_loops(core_calls):
    # cold: x0 + x1 >= 1 starts on its artificial, and phase 1 brings x0
    # in at 1; phase 2's min -x0 enters that row's slack, and x0 rises
    # until 2 x0 + x1 <= 5 binds, whose slack leaves
    lp = _lp([-1.0, 0.0], [[1.0, 1.0], [2.0, 1.0]], [GE, LE], [1.0, 5.0], [0.0, 0.0], [3.0, 3.0])
    out = _kernel(lp)
    assert out[0] == 0 and out[2] == -2.5 and sorted(out[6][0]) == [0, 2]
    _assert_matches_cold_and_reference(lp, out)
    # warm: min -x0 + x1 ends with x0 basic at 2 on 2 x0 + x1 <= 4 and
    # x0 + 3 x1 >= 1.5 slack. With x0 <= 1 the dual ratio test enters the
    # first row's slack (ratio 1) over x1 (ratio 3), which leaves the
    # second row violated by 0.5; x1 enters for it, and primal phase 2
    # only prices. The basis inverse is not symmetric, so reading a row of
    # it for the slack's column would leave that violation unseen.
    c, dense, senses, rhs = [-1.0, 1.0], [[2.0, 1.0], [1.0, 3.0]], [LE, GE], [4.0, 1.5]
    parent = _kernel(_lp(c, dense, senses, rhs, [0.0, 0.0], [3.0, 3.0]))
    assert sorted(parent[6][0]) == [0, 3]
    child = _lp(c, dense, senses, rhs, [0.0, 0.0], [1.0, 3.0])
    del core_calls[:]
    out = _kernel(child, warm=parent[6])
    assert len(core_calls) == 1, "the warm attempt was accepted"
    assert out[0] == 0 and sorted(out[6][0]) == [1, 2] and out[5] == 3
    assert np.allclose(out[1], [1.0, 1.0 / 6.0], rtol=0.0, atol=1e-12)
    _assert_matches_cold_and_reference(child, out)


def test_phase_one_drives_a_zero_artificial_out_of_the_basis():
    # min -2 x0 s.t. x0 + x1 = 1, x1 = 1: both rows start on artificials,
    # and phase 1 ends after one pivot with x1 basic at 1 and the second
    # row's artificial basic at 0. The drive-out exchanges it for x0 on a
    # nonzero pivot, so the optimal basis holds no artificial and is
    # returned. The drive-out counts no iteration: phase 2 only confirms
    # optimality, where it would otherwise spend a degenerate pivot
    # expelling the artificial.
    lp = _lp([-2.0, 0.0], [[1.0, 1.0], [0.0, 1.0]], [EQ, EQ], [1.0, 1.0], [0.0, 0.0], [3.0, 3.0])
    out = _kernel(lp)
    assert out[0] == 0 and out[1].tolist() == [0.0, 1.0] and out[2] == 0.0
    assert out[6] is not None and out[6][0].tolist() == [1, 0]
    assert out[5] == 3
    _check_against_reference(lp)


def test_mip_children_start_from_the_parent_basis(monkeypatch):
    calls = []
    kernel = optbase._solve_dense

    def recording(c, A, senses, rhs, lb, ub, *args, warm=None, **kwargs):
        out = kernel(c, A, senses, rhs, lb, ub, *args, warm=warm, **kwargs)
        calls.append((lb.copy(), ub.copy(), warm, out[6]))
        return out

    monkeypatch.setattr(optbase, "_solve_dense", recording)
    warm_children = 0
    for seed in range(40):
        del calls[:]
        out = solve_mip(_random_mip(seed))
        assert out.node_count == len(calls)
        assert calls[0][2] is None
        for k in range(1, len(calls)):
            lb, ub, warm, _ = calls[k]
            # the parent box is the child box with one bound loosened
            parents = [
                p
                for p in range(k)
                if np.all(lb >= calls[p][0])
                and np.all(ub <= calls[p][1])
                and np.count_nonzero(lb != calls[p][0]) + np.count_nonzero(ub != calls[p][1]) == 1
            ]
            assert len(parents) == 1 and warm is calls[parents[0]][3]
            warm_children += warm is not None
    assert warm_children > 10


# ---------------------------------------------------- carried inverse


@pytest.fixture
def inverse_calls(monkeypatch):
    """Counts `_simplex._basis_inverse` calls."""
    from sipcuts import _simplex

    calls = []
    inverse = _simplex._basis_inverse

    def counting(*args):
        calls.append(1)
        return inverse(*args)

    monkeypatch.setattr(_simplex, "_basis_inverse", counting)
    return calls


def _record_mip_nodes(monkeypatch, programs):
    """Every kernel call of `solve_mip` on each program: the program, the
    box, the start, the output and the number of `_basis_inverse` calls
    the solve made."""
    from sipcuts import _simplex

    calls, inverses = [], []
    kernel, inverse = optbase._solve_dense, _simplex._basis_inverse

    def counting(*args):
        inverses.append(1)
        return inverse(*args)

    def recording(c, A, senses, rhs, lb, ub, *args, warm=None, **kwargs):
        made = len(inverses)
        out = kernel(c, A, senses, rhs, lb, ub, *args, warm=warm, **kwargs)
        calls.append(((c, A, senses, rhs, lb.copy(), ub.copy()), warm, out, len(inverses) - made))
        return out

    monkeypatch.setattr(_simplex, "_basis_inverse", counting)
    monkeypatch.setattr(optbase, "_solve_dense", recording)
    for prog in programs:
        solve_mip(prog)
    return calls


def _check_children_copy_the_carried_inverse(calls):
    """A warm child inverts its final basis when it ends optimal, and no
    other: it starts from a copy of its parent's final inverse, which
    rides along with the basis."""
    warm_children = 0
    for _, warm, out, inverses in calls:
        if warm is not None:
            assert len(warm) == 3
            assert inverses == (out[0] == 0), "the start basis was inverted"
            warm_children += 1
    assert warm_children > 10


@pytest.mark.parametrize("rows", [None, TALL], ids=["small", "tall"])
def test_already_optimal_warm_start_inverts_its_basis_once(rows, inverse_calls, core_calls):
    from sipcuts import _simplex

    lp, _ = _bounded_lp(3, rows)
    parent = _kernel(lp)
    del inverse_calls[:], core_calls[:]
    out = _kernel(lp, warm=parent[6], prepped=True)
    assert len(core_calls) == 1 and out[0] == _simplex.OPTIMAL
    assert len(inverse_calls) == 1, "the optimal exit inverted the start basis again"
    basis, _, Binv = out[6]
    WT = np.ascontiguousarray(lp.A.to_dense().T)
    assert Binv.tobytes() == _simplex._basis_inverse(WT, basis, np.ones(lp.nrows)).tobytes()
    assert out[5] == 1 and np.array_equal(basis, parent[6][0])


def test_mip_nodes_match_children_solved_from_the_basis_pair(monkeypatch):
    from sipcuts import _simplex

    carried = 0
    programs = map(_random_mip, range(40))
    for (c, A, senses, rhs, lb, ub), warm, out, _ in _record_mip_nodes(monkeypatch, programs):
        carried += warm is not None and len(warm) == 3
        pair = None if warm is None else warm[:2]
        ref = _simplex.solve_dense(A, rhs, senses, c, lb, ub, warm=pair)
        _same_output(out, ref)
        assert (out[6] is None) == (ref[6] is None)
        if ref[6] is not None:
            assert len(ref[6]) == 2, "a one-shot solve hands on no inverse"
            for u, v in zip(out[6], ref[6]):
                assert u.tobytes() == v.tobytes()
    assert carried > 10


def test_mip_warm_children_below_block_rows_make_no_start_inverse(monkeypatch):
    calls = _record_mip_nodes(monkeypatch, map(_random_mip, range(40)))
    _check_children_copy_the_carried_inverse(calls)


def _tall_mip(seed):
    """A seeded integer program of 32 rows up to the block-form cutoff,
    all GE, on 6 to 10 columns, that holds at an integer point of its
    box, so that its tree branches before it ends optimal."""
    from sipcuts import _simplex

    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(32, _simplex._BLOCK_FINAL_MIN_ROWS)), int(rng.integers(6, 11))
    dense = np.round(rng.uniform(-5.0, 5.0, (m, n)))
    ub = rng.integers(2, 6, n)
    anchor = rng.integers(0, ub + 1)
    rhs = dense @ anchor - rng.uniform(0.5, 3.0, m)
    c = np.round(rng.uniform(-5.0, 5.0, n))
    senses = np.full(m, GE, dtype=np.int8)
    is_int = np.ones(n, dtype=bool)
    return MipProgram(c=c, A=dense, senses=senses, rhs=rhs, lb=np.zeros(n), ub=ub, is_int=is_int)


def test_tall_mip_children_copy_the_carried_inverse(monkeypatch):
    from sipcuts import _simplex

    programs = [_tall_mip(seed) for seed in range(5)]
    assert all(32 <= p.nrows < _simplex._BLOCK_FINAL_MIN_ROWS for p in programs)
    calls = _record_mip_nodes(monkeypatch, programs)
    _check_children_copy_the_carried_inverse(calls)
    # the copy has the bits the child's own start inverse would have
    for (c, A, senses, rhs, lb, ub), warm, out, _ in calls:
        pair = None if warm is None else warm[:2]
        _same_output(out, _simplex.solve_dense(A, rhs, senses, c, lb, ub, warm=pair))


def test_solve_mip_prepares_the_program_once(monkeypatch):
    from sipcuts import _simplex

    calls = []
    prepare = _simplex.prepare

    def counting(*args, **kwargs):
        calls.append(1)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(_simplex, "prepare", counting)
    out = solve_mip(_random_mip(17))
    assert out.status == OPTIMAL and out.node_count > 1
    assert len(calls) == 1


def test_start_with_fewer_rows_ignores_the_carried_inverse(inverse_calls, core_calls):
    lp, _ = _bounded_lp(4)
    dense = lp.A.to_dense()
    head = _lp(lp.c, dense[:-1], lp.senses[:-1], lp.rhs[:-1], lp.lb, lp.ub)
    parent = _kernel(head, prepped=True)
    assert parent[0] == 0 and len(parent[6]) == 3
    del core_calls[:]
    del inverse_calls[:]
    out = _kernel(lp, warm=parent[6], prepped=True)
    assert len(core_calls) == 1, "the warm attempt was accepted"
    assert len(inverse_calls) == 2, "the start basis was inverted, then the final one"
    _same_output(out, _kernel(lp, warm=parent[6][:2]))


@pytest.mark.parametrize(
    "rows, carries", [((31, 32), True), ((32, 33), True), (TALL, True), (MASTER, False)]
)
def test_only_bases_below_block_rows_carry_their_inverse(rows, carries):
    from sipcuts import _simplex

    lp, _ = _bounded_lp(0, rows)
    assert (lp.nrows < _simplex._BLOCK_FINAL_MIN_ROWS) == carries
    out = _kernel(lp, prepped=True)
    assert out[0] == 0 and len(out[6]) == (3 if carries else 2)
    assert len(_kernel(lp)[6]) == 2, "a one-shot solve hands on no inverse"
    if carries:  # the dense inverse of the final basis, slack columns as unit vectors
        cols = np.vstack([lp.A.to_dense().T, np.eye(lp.nrows)])
        ref = np.linalg.inv(np.ascontiguousarray(cols[out[6][0]].T))
        assert out[6][2].tobytes() == ref.tobytes()


def test_scaled_attempt_carries_no_inverse(monkeypatch):
    from sipcuts import _simplex

    lp, _ = _bounded_lp(2)
    assert len(_kernel(lp, prepped=True)[6]) == 3
    monkeypatch.setattr(_simplex, "_ATTEMPTS", ((True, _simplex._REFACTOR_EVERY),))
    out = _kernel(lp, prepped=True)
    assert out[0] == 0 and len(out[6]) == 2


# ------------------------------------------------------- basis inverse


def _unit_basis_system(m, share, seed):
    """The kernel's structural columns WT = A' for m rows, a random
    nonsingular basis with round(share * m) structural columns, every
    other row covered by its slack or its artificial, and the signs
    asig of the artificial columns."""
    rng = np.random.default_rng(seed)
    k = int(round(share * m))
    n = k + 5
    WT = rng.uniform(-1.0, 1.0, (n, m))
    asig = rng.choice([-1.0, 1.0], m)
    rows = rng.permutation(m)[: m - k]
    units = np.where(rng.random(m - k) < 0.5, n + rows, n + m + rows)
    basis = rng.permutation(np.concatenate([rng.choice(n, k, replace=False), units]))
    return WT, basis, asig


def _columns(WT, asig):
    """Every column of the kernel's equality system as a row:
    [A | I | diag(asig)]' for the structural columns WT = A'."""
    return np.vstack([WT, np.eye(asig.size), np.diag(asig)])


@pytest.mark.parametrize("m", [32, 40, 100, 300])
@pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_basis_inverse_matches_dense_inverse(m, share):
    from sipcuts import _simplex

    WT, basis, asig = _unit_basis_system(m, share, seed=m)
    ref = np.linalg.inv(_columns(WT, asig)[basis].T)
    got = _simplex._basis_inverse(WT, basis, asig)
    assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 5, 12, 25, 31, 32, 100, 199])
def test_basis_inverse_below_block_rows_is_the_dense_inverse(m):
    from sipcuts import _simplex

    WT, basis, asig = _unit_basis_system(m, 0.5, seed=m)
    got = _simplex._basis_inverse(WT, basis, asig)
    ref = np.linalg.inv(np.ascontiguousarray(_columns(WT, asig)[basis].T))
    assert got.tobytes() == ref.tobytes()


def _singular_bases():
    """A 40 x 12 matrix A whose column 0 vanishes on rows 0-9, and two
    singular bases of it for artificial signs -1: in `twice` the slack
    and the artificial of row 11 are both basic, in `singular` slacks
    cover rows 10-39 and the block of columns 0-9 on rows 0-9 has a zero
    column."""
    m, n = 40, 12
    rng = np.random.default_rng(0)
    A = rng.uniform(-1.0, 1.0, (m, n))
    A[:10, 0] = 0.0
    twice = np.concatenate([np.arange(10), n + np.arange(11, m), [n + m + 11]])
    singular = np.concatenate([np.arange(10), n + np.arange(10, m)])
    return A, twice, singular


def test_block_factors_reject_singular_bases():
    from sipcuts import _simplex

    A, twice, singular = _singular_bases()
    for basis in (twice, singular):
        assert basis.size == A.shape[0]
        with pytest.raises(np.linalg.LinAlgError):
            _simplex._block_factors(A.T, basis, -np.ones(A.shape[0]))


# ------------------------------------------------------- block pivots


@pytest.mark.parametrize("seed", range(5))
def test_block_final_inverse_matches_the_dense_one(seed, monkeypatch):
    """Block pivots match dense pivots: a cold solve at the block-form
    size against the same solve with the cutoff above its rows."""
    from sipcuts import _simplex

    lp, _ = _bounded_lp(seed, MASTER)
    assert lp.nrows >= _simplex._BLOCK_FINAL_MIN_ROWS
    block = _kernel(lp)
    monkeypatch.setattr(_simplex, "_BLOCK_FINAL_MIN_ROWS", lp.nrows + 1)
    dense = _kernel(lp)
    assert block[0] == dense[0] == _simplex.OPTIMAL and block[5] == dense[5]
    for u, v in zip(block[6], dense[6]):
        assert np.array_equal(u, v)
    for u, v in ((block[1], dense[1]), (block[3], dense[3]), (block[2], dense[2])):
        assert np.all(np.abs(np.subtract(u, v)) <= 1e-9 * (1.0 + np.abs(v)))


def _tall_cold_lp(seed, kind):
    """A cold start at the block-form size: 220 LE and GE rows around an
    anchor in a box, about half of the LE rows with a negative
    right-hand side, so that phase 1 starts on artificial columns of
    both signs, and the equalities a + b = 1, b = 1 on two columns of
    their own, whose tie leaves an artificial basic at 0 for the
    drive-out (see `test_phase_one_drives_a_zero_artificial_out_of_the_basis`).
    "infeasible" adds sum x >= sum ub + 1; "unbounded" adds a column of
    cost -1 with no upper bound that only GE rows hold, with positive
    coefficients."""
    rng = np.random.default_rng(seed)
    m, n = 220, 12
    rows = np.round(rng.uniform(-5.0, 5.0, (m, n)))
    ub = rng.integers(2, 8, n).astype(float)
    anchor = rng.uniform(0.1, 0.9, n) * ub
    senses = np.where(rng.random(m) < 0.5, LE, GE)
    gap = rng.uniform(0.5, 3.0, m)
    rhs = np.concatenate([[1.0, 1.0], rows @ anchor + np.where(senses == LE, gap, -gap)])
    dense = np.zeros((m + 2, n + 2))
    dense[2:, :n] = rows
    dense[0, n:] = 1.0
    dense[1, n + 1] = 1.0
    senses = np.concatenate([[EQ, EQ], senses])
    c = np.concatenate([np.round(rng.uniform(-5.0, 5.0, n)), [-2.0, 0.0]])
    lb, ub = np.zeros(n + 2), np.concatenate([ub, [3.0, 3.0]])
    if kind == "infeasible":
        dense = np.vstack([dense, np.ones(n + 2)])
        senses = np.append(senses, GE)
        rhs = np.append(rhs, ub.sum() + 1.0)
    elif kind == "unbounded":
        col = np.where(senses == GE, rng.integers(1, 4, senses.size), 0.0)
        dense = np.hstack([dense, col[:, None]])
        c, lb, ub = np.append(c, -1.0), np.append(lb, 0.0), np.append(ub, np.inf)
    return _lp(c, dense, senses, rhs, lb, ub)


@pytest.mark.parametrize("kind", ["optimal", "infeasible", "unbounded"])
@pytest.mark.parametrize("seed", range(3))
def test_tall_cold_solve_matches_reference_and_dense_pivots(seed, kind, core_calls, monkeypatch):
    from sipcuts import _simplex

    lp = _tall_cold_lp(seed, kind)
    assert lp.nrows >= _simplex._BLOCK_FINAL_MIN_ROWS
    assert np.any((lp.senses == LE) & (lp.rhs < 0.0)), "some artificial starts at -1"
    _check_against_reference(lp)
    del core_calls[:]
    out = _kernel(lp)
    assert len(core_calls) == 1, "the first attempt answered"
    A = lp.A.to_dense()
    if kind == "infeasible":
        assert out[0] == _simplex.INFEASIBLE
        assert _simplex._farkas_certifies(A, lp.rhs, lp.senses, lp.lb, lp.ub, out[4])
    elif kind == "unbounded":
        assert out[0] == _simplex.UNBOUNDED
        assert _simplex._ray_certifies(A, lp.senses, lp.c, lp.lb, lp.ub, out[4])
    else:
        assert out[0] == _simplex.OPTIMAL and out[6] is not None, "no artificial left basic"
    # the same pivots as the dense inverse makes: the drive-out counts no
    # iteration, so a block drive-out that failed would show here
    monkeypatch.setattr(_simplex, "_BLOCK_FINAL_MIN_ROWS", lp.nrows + 1)
    dense = _kernel(lp)
    assert dense[0] == out[0] and dense[5] == out[5]
    if kind == "optimal":
        for u, v in zip(out[6], dense[6]):
            assert np.array_equal(u, v)


@pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 0.9])
def test_block_factors_describe_the_basis(share):
    """The factors of each basis on a walk of pivots that trade every
    kind of column for every kind, as a block-form pivot makes them."""
    from sipcuts import _simplex

    m = 40
    WT, basis, asig = _unit_basis_system(m, share, seed=3)
    n = WT.shape[0]
    cols = _columns(WT, asig)
    rng = np.random.default_rng(4)
    kinds = set()
    for t in range(60):
        # enter a structural column every other step, else a slack (an
        # artificial, never priced, never enters); leave a structural one
        # every other pair of steps, when one can leave
        pool = np.setdiff1d(np.arange(n), basis)
        if t % 2 == 0 or pool.size == 0:
            pool = np.setdiff1d(np.arange(n, n + m), basis)
        e = int(rng.choice(pool))
        u = np.linalg.solve(cols[basis].T, cols[e])
        can = np.abs(u) >= 0.2 * np.abs(u).max()
        if np.any(can & ((basis < n) == (t % 4 < 2))):
            can &= (basis < n) == (t % 4 < 2)
        leave = int(rng.choice(np.flatnonzero(can)))
        kinds.add((bool(basis[leave] < n), e < n))
        basis[leave] = e
        ps, rs, S, Ainv, prow, psig = _simplex._block_factors(WT, basis, asig)
        unit = basis >= n
        assert np.array_equal(np.sort(ps), np.flatnonzero(~unit))
        assert np.array_equal(np.sort(prow), np.arange(m))
        assert np.array_equal(np.sort(prow[ps]), np.sort(rs))
        assert np.array_equal(prow[unit], (basis[unit] - n) % m)
        assert np.array_equal(psig, np.where(unit, cols[basis, prow], 0.0))
        assert np.array_equal(S, WT[basis[ps]])
        ref = np.linalg.inv(S[:, rs].T)
        assert np.abs(Ainv - ref).max(initial=0.0) <= 1e-8 * (1.0 + np.abs(ref).max(initial=0.0))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_master_warm_solve_keeps_no_m_by_m_array(core_calls):
    import tracemalloc

    from sipcuts import _simplex

    lp, anchor = _bounded_lp(2, (500, 501))
    m = lp.nrows
    assert m == 500 and lp.nvars == 18
    A = lp.A.to_dense()
    parent = _kernel(lp)
    ub = 0.5 * (parent[1] + anchor)
    prep = _simplex.prepare(A, lp.rhs, lp.senses)
    # a warm solve with the set-up made first, as a tree's node makes it,
    # then one-shot cold and warm solves, as `MasterModel.solve` makes them
    for box, warm, given in ((ub, parent[6], prep), (lp.ub, None, None), (ub, parent[6], None)):
        del core_calls[:]
        tracemalloc.start()
        try:
            out = _simplex.solve_dense(A, lp.rhs, lp.senses, lp.c, lp.lb, box, warm=warm, prep=given)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(core_calls) == 1 and out[0] == _simplex.OPTIMAL and out[5] > 10
        assert peak < 8 * m * m


def test_final_inverse_below_the_cutoff_is_dense(monkeypatch, core_calls):
    from sipcuts import _simplex

    cutoff = _simplex._BLOCK_FINAL_MIN_ROWS
    lp, anchor = _bounded_lp(0, (cutoff - 1, cutoff))
    assert lp.nrows == cutoff - 1

    def cold_and_warm():
        parent = _kernel(lp)
        child = _lp(lp.c, lp.A.to_dense(), lp.senses, lp.rhs, lp.lb, 0.5 * (parent[1] + anchor))
        return parent, _kernel(child, warm=parent[6])

    before = cold_and_warm()
    assert len(core_calls) == 2, "the warm attempt was accepted"
    monkeypatch.setattr(_simplex, "_BLOCK_FINAL_MIN_ROWS", 10**9)
    for a, b in zip(before, cold_and_warm()):
        _same_output(a, b)
        for u, v in zip(a[6], b[6]):
            assert u.tobytes() == v.tobytes()


def test_snip_scenario_lps_in_block_form_match_the_dense_inverse(
    monkeypatch, inverse_calls, core_calls
):
    """Scenario 0 of SNIP(30,80,20,b30,S20) seed 1, the snip-root
    workload: the cold recourse LP at x = 0 and its warm re-solve at
    x = 0.5, and a qbar-style joint LP and its warm re-solve under new
    multipliers, as the block form runs them and with the cutoff above
    their rows."""
    from sipcuts import _simplex
    from sipcuts.instances import SnipParams, gen_snip
    from sipcuts.model import joint_scenario_program, recourse_program

    inst = gen_snip(SnipParams(30, 80, 20, 30.0, 20, seed=1))
    q, rng = inst.scenarios[0].q, np.random.default_rng(1)
    pi = rng.uniform(-0.01, 0.01, inst.nx)
    pairs = [
        [recourse_program(inst, 0, np.full(inst.nx, v)) for v in (0.0, 0.5)],
        [joint_scenario_program(inst, 0, pi, q), joint_scenario_program(inst, 0, -pi, 0.5 * q)],
    ]
    assert [lp.nrows for pair in pairs for lp in pair] == [102, 102, 103, 103]
    assert 102 >= _simplex._BLOCK_FINAL_MIN_ROWS

    def solve_pairs():
        outs = []
        for cold_lp, warm_lp in pairs:
            cold = _kernel(cold_lp)
            del core_calls[:]
            warm = _kernel(warm_lp, warm=cold[6])
            assert len(core_calls) == 1, "the warm attempt was accepted"
            assert warm[5] > 0, "the warm start was optimal already"
            outs += [cold, warm]
        return outs

    del inverse_calls[:]
    block = solve_pairs()
    assert not inverse_calls, "the block form inverted an m x m basis"
    monkeypatch.setattr(_simplex, "_BLOCK_FINAL_MIN_ROWS", 10**9)
    for a, b in zip(block, solve_pairs()):
        assert a[0] == b[0] == _simplex.OPTIMAL
        assert abs(a[2] - b[2]) <= 1e-9 * (1.0 + abs(b[2]))
    assert inverse_calls

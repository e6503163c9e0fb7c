import itertools
import math

import numpy as np
import pytest

from _oracles import (
    ball_boundary,
    finite_epigraph,
    first_stage_points,
    max_violation_on_grid,
    qbar_enum,
    recourse_enum,
    span_coef_boundary,
    span_weight_boundary,
)
from conftest import make_tiny
from sipcuts.benders import Cut, compute_theta_lower_bound, solve_benders_subproblem
from sipcuts.lagrangian import (
    NormalizationSpec,
    ScenarioPool,
    benders_basis,
    eval_qbar,
    restricted_model_max,
    seed_pool,
    select_basis_mip,
    separate_restricted,
    strengthen_benders,
)
from sipcuts.model import CONT, INT, BIN, Scenario, SipInstance


# ----------------------------------------------------------- value function


def test_toy_qbar_values(t1):
    v, _ = eval_qbar(t1, 0, np.array([2.0]), 1.0)
    assert v == pytest.approx(2.0)
    v, _ = eval_qbar(t1, 0, np.array([-1.0]), 1.0)
    assert v == pytest.approx(-1.0)  # x=1, y=0
    v, _ = eval_qbar(t1, 0, np.array([0.0]), 0.0)
    assert v == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(6))
def test_qbar_matches_enumeration(seed):
    inst = make_tiny(seed)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        pi = np.round(rng.uniform(-2, 2, size=inst.nx), 3)
        pi0 = float(np.round(rng.uniform(0, 2), 3))
        got, _ = eval_qbar(inst, 0, pi, pi0)
        want = qbar_enum(inst, 0, pi, pi0)
        assert got == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
def test_qbar_positive_homogeneity(t, t1):
    for inst in (t1, make_tiny(3)):
        pi = np.full(inst.nx, 0.7)
        base, _ = eval_qbar(inst, 0, pi, 0.4)
        scaled, _ = eval_qbar(inst, 0, t * pi, t * 0.4)
        assert scaled == pytest.approx(t * base, rel=1e-9, abs=1e-9)


def test_qbar_rejects_negative_weight(t1):
    with pytest.raises(Exception):
        eval_qbar(t1, 0, np.array([0.0]), -0.5)


# -------------------------------------------------------------------- pool


def test_pool_keeps_min_theta():
    pool = ScenarioPool()
    x = np.array([1.0, 0.0])
    assert pool.add(x, 5.0)
    assert pool.add(x, 3.0)  # tightened
    assert not pool.add(x, 4.0)  # looser, ignored
    X, th = pool.arrays()
    assert X.shape == (1, 2) and th[0] == 3.0


def test_pool_grows_from_incumbents(t1):
    pool = ScenarioPool()
    eval_qbar(t1, 0, np.array([2.0]), 1.0, pool)
    assert len(pool) >= 1
    X, th = pool.arrays()
    for k in range(X.shape[0]):  # every pool point is realizable
        assert th[k] >= recourse_enum(t1, 0, X[k]) - 1e-9


def test_tiny_weight_repricing(t1):
    pool = ScenarioPool()
    # pi strongly favors x=0 while pi0 is negligible, so the joint MIP
    # may pair x=0 with any y; the repricing step must still record the
    # exact recourse cost 2 at x=0
    v, x = eval_qbar(t1, 0, np.array([1.0]), 1e-6, pool)
    assert v == pytest.approx(2e-6)
    assert x[0] == pytest.approx(0.0)
    X, th = pool.arrays()
    k = int(np.argmin(np.abs(X[:, 0])))
    assert X[k, 0] == 0.0 and th[k] == pytest.approx(2.0)


def test_seed_pool(t1):
    pool = ScenarioPool()
    seed_pool(t1, 0, pool)
    assert len(pool) >= 1


# ------------------------------------------------------- separation masters


def test_normalization_validation():
    with pytest.raises(ValueError, match="kind"):
        NormalizationSpec(kind="cube")
    with pytest.raises(ValueError, match="positive"):
        NormalizationSpec(kind="ball", alpha=0.0)
    with pytest.raises(ValueError, match="basis"):
        NormalizationSpec(kind="span_coef", alpha=1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda alpha: NormalizationSpec("ball", alpha),
        lambda alpha: NormalizationSpec("span_weight", alpha, basis=np.ones((1, 1))),
        lambda alpha: select_basis_mip(np.zeros(1), 0.0, ScenarioPool(), np.ones((1, 1)), 1, alpha),
    ],
    ids=["ball", "span_weight", "select_basis_mip"],
)
def test_nan_theta_weight_is_rejected(make):
    # a NaN weight fails every comparison, so `alpha <= 0` let it through
    with pytest.raises(ValueError, match="positive"):
        make(math.nan)


def _full_pool(inst, s):
    pool = ScenarioPool()
    X, Q = finite_epigraph(inst, s)
    for k in range(X.shape[0]):
        pool.add(X[k], float(Q[k]))
    return pool


def test_model_max_with_exact_pool_matches_grid(t1):
    # with the entire epigraph in the pool the model equals qbar exactly
    pool = _full_pool(t1, 0)
    x_hat, theta_hat = np.array([0.0]), 0.0
    norm = NormalizationSpec(kind="ball", alpha=1.0)
    got = restricted_model_max(x_hat, theta_hat, pool, norm)
    PI, P0 = ball_boundary(1, 1.0, 1e-3)
    want = max_violation_on_grid(t1, 0, x_hat, theta_hat, PI, P0)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert got >= want - 1e-9
    assert got <= want + 1e-3  # grid resolution slack


@pytest.mark.parametrize("seed", [0, 6])
@pytest.mark.parametrize("kind", ["ball", "span_coef", "span_weight"])
def test_model_max_with_exact_pool_matches_grid_2d(kind, seed):
    # two first-stage columns tell the interleaved |pi| / |lam| rows apart
    inst = make_tiny(seed, nx=2)
    pool = _full_pool(inst, 0)
    x_hat = np.full(2, 0.5)
    theta_hat = compute_theta_lower_bound(inst, 0)
    V = np.vstack([solve_benders_subproblem(inst, 0, x_hat).cut.coef_x, np.ones(2)])
    resolution = 2e-3
    if kind == "ball":
        norm = NormalizationSpec(kind, 1.0)
        PI, P0 = ball_boundary(2, 1.0, resolution)
    else:
        norm = NormalizationSpec(kind, 1.0, basis=V)
        boundary = span_coef_boundary if kind == "span_coef" else span_weight_boundary
        PI, P0 = boundary(V, 1.0, resolution)
    got = restricted_model_max(x_hat, theta_hat, pool, norm)
    want = max_violation_on_grid(inst, 0, x_hat, theta_hat, PI, P0)
    assert want > 0.1
    assert want - 1e-9 <= got <= want + resolution


# ------------------------------------------------------ restricted search


def test_toy_ball_separation_exact(t1):
    res = separate_restricted(t1, 0, np.array([0.0]), 0.0, NormalizationSpec("ball", 1.0))
    assert res.cut is not None
    assert res.stop == "delta"
    assert res.lower == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert res.upper <= res.lower + 1e-6
    # the cut is the scaled exact inequality 2x + theta >= 2
    assert res.cut.coef_x[0] == pytest.approx(2.0 / 3.0, abs=1e-7)
    assert res.cut.coef_theta == pytest.approx(1.0 / 3.0, abs=1e-7)
    assert res.cut.rhs == pytest.approx(2.0 / 3.0, abs=1e-7)


@pytest.mark.parametrize("kind", ["span_coef", "span_weight"])
def test_toy_span_separation_exact(kind, t1):
    norm = NormalizationSpec(kind, 1.0, basis=np.array([[1.0]]))
    res = separate_restricted(t1, 0, np.array([0.0]), 0.0, norm)
    assert res.cut is not None
    assert res.lower == pytest.approx(2.0 / 3.0, abs=1e-7)


def test_separation_reports_no_violation(t1):
    # theta_hat at the true recourse value: nothing can be violated
    res = separate_restricted(t1, 0, np.array([1.0]), 0.0, NormalizationSpec("ball", 1.0))
    assert res.cut is None
    assert res.stop == "no_violation"
    assert res.upper <= 1e-6 * (abs(0.0) + 1.0)


def test_separation_determinism(t1):
    r1 = separate_restricted(t1, 0, np.array([0.0]), 0.0, NormalizationSpec("ball", 1.0))
    r2 = separate_restricted(t1, 0, np.array([0.0]), 0.0, NormalizationSpec("ball", 1.0))
    assert r1.oracle_calls == r2.oracle_calls
    assert r1.lower == r2.lower and r1.upper == r2.upper
    assert r1.cut.coef_x.tobytes() == r2.cut.coef_x.tobytes()
    assert r1.cut.rhs == r2.cut.rhs


@pytest.mark.parametrize("seed,delta", [(0, 0.0), (3, 0.5), (5, 0.1), (7, 0.0)])
def test_separation_quality_against_grid(seed, delta):
    inst = make_tiny(seed, nx=2)
    s = 0
    x_hat = np.full(2, 0.5)
    theta_hat = compute_theta_lower_bound(inst, s)
    res_b = solve_benders_subproblem(inst, s, x_hat)
    V = np.vstack([res_b.cut.coef_x, np.ones(2)])
    for kind, boundary in (
        ("span_weight", span_weight_boundary),
        ("span_coef", span_coef_boundary),
    ):
        norm = NormalizationSpec(kind, 1.0, basis=V)
        res = separate_restricted(inst, s, x_hat, theta_hat, norm, delta=delta)
        PI, P0 = boundary(V, 1.0, 2e-3)
        want = max_violation_on_grid(inst, s, x_hat, theta_hat, PI, P0)
        if want > 1e-5:
            assert res.lower >= (1.0 - delta) * want - 1e-5
        # certified model bound dominates the true achievable violation
        assert res.upper >= want - 1e-6


def test_ball_separation_quality_against_grid():
    inst = make_tiny(11, nx=2)
    x_hat = np.array([0.5, 0.25])
    theta_hat = compute_theta_lower_bound(inst, 0)
    res = separate_restricted(inst, 0, x_hat, theta_hat, NormalizationSpec("ball", 1.0))
    PI, P0 = ball_boundary(2, 1.0, 2e-3)
    want = max_violation_on_grid(inst, 0, x_hat, theta_hat, PI, P0)
    if want > 1e-5:
        assert res.lower >= want - 1e-4  # delta=0: essentially exact
    assert res.upper >= want - 1e-6


@pytest.mark.parametrize("seed", [0, 2, 4])
def test_lagrangian_cut_valid_on_epigraph(seed):
    inst = make_tiny(seed)
    x_hat = np.full(inst.nx, 0.5)
    for s in range(inst.nscen):
        theta_hat = compute_theta_lower_bound(inst, s)
        res = separate_restricted(inst, s, x_hat, theta_hat, NormalizationSpec("ball", 1.0))
        if res.cut is None:
            continue
        X, Q = finite_epigraph(inst, s)
        for k in range(X.shape[0]):
            assert res.cut.slack(X[k], Q[k]) >= -1e-7 * (1 + abs(Q[k]))


# ------------------------------------------------------------ strengthening


def test_strengthen_toy_equals_parent(t1):
    parent = solve_benders_subproblem(t1, 0, np.array([0.0])).cut
    strong = strengthen_benders(t1, 0, parent)
    assert strong.family == "strengthened"
    np.testing.assert_array_equal(strong.coef_x, parent.coef_x)
    assert strong.rhs == pytest.approx(parent.rhs)  # scenario LP is tight here


def test_strengthen_closes_integrality_gap():
    # recourse min y s.t. 2y >= 1, y integer: LP value 0.5, exact 1
    inst = SipInstance(
        name="gapcase",
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
                W=np.array([[2.0]]),
                h=np.array([1.0]),
                T=np.zeros((1, 1)),
                vtype=np.array([INT], dtype=np.int8),
                lb=np.zeros(1),
                ub=np.array([3.0]),
            )
        ],
    )
    parent = solve_benders_subproblem(inst, 0, np.array([0.0])).cut
    assert parent.rhs == pytest.approx(0.5)
    strong = strengthen_benders(inst, 0, parent)
    assert strong.rhs == pytest.approx(1.0)
    assert strong.violation_at_birth == pytest.approx(0.5)


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_strengthened_cut_valid_and_dominates(seed):
    inst = make_tiny(seed)
    for s in range(inst.nscen):
        parent = solve_benders_subproblem(inst, s, np.full(inst.nx, 0.5)).cut
        strong = strengthen_benders(inst, s, parent)
        assert strong.rhs >= parent.rhs - 1e-9
        X, Q = finite_epigraph(inst, s)
        for k in range(X.shape[0]):
            assert strong.slack(X[k], Q[k]) >= -1e-7 * (1 + abs(Q[k]))


# ------------------------------------------------------------------- basis


def test_benders_basis_dedup_and_order():
    cuts = [
        Cut("benders", 0, np.array([1.0, 0.0]), 1.0, 1.0),
        Cut("benders", 1, np.array([9.0, 9.0]), 1.0, 1.0),  # other scenario
        Cut("benders", 0, np.array([1.0, 0.0]), 1.0, 2.0),  # duplicate coef
        Cut("lagrangian", 0, np.array([7.0, 7.0]), 0.5, 1.0),  # wrong family
        Cut("strengthened", 0, np.array([0.0, 1.0]), 1.0, 1.0),
        Cut("benders", 0, np.array([2.0, 2.0]), 1.0, 1.0),
    ]
    V = benders_basis(cuts, 0, k_max=2, nx=2)
    np.testing.assert_array_equal(V, [[0.0, 1.0], [2.0, 2.0]])
    assert benders_basis([], 0, 3, nx=2).shape == (0, 2)


def test_select_basis_matches_subset_enumeration():
    inst = make_tiny(6, nx=3)
    pool = _full_pool(inst, 0)
    x_hat = np.array([0.5, 0.5, 0.0])
    theta_hat = compute_theta_lower_bound(inst, 0)
    cands = np.array(
        [
            solve_benders_subproblem(inst, 0, np.zeros(3)).cut.coef_x,
            solve_benders_subproblem(inst, 0, np.ones(3)).cut.coef_x,
            np.array([1.0, -1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
        ]
    )
    k_max = 2
    idx, bound = select_basis_mip(x_hat, theta_hat, pool, cands, k_max, alpha=1.0)
    assert idx.size <= k_max
    best = 0.0  # empty selection: pi = 0, value max(0, ...) with t<=pi0*theta
    best = max(
        best,
        restricted_model_max(
            x_hat, theta_hat, pool, NormalizationSpec("span_weight", 1.0, np.zeros((1, 3)))
        ),
    )
    for r in (1, 2):
        for sub in itertools.combinations(range(len(cands)), r):
            val = restricted_model_max(
                x_hat, theta_hat, pool, NormalizationSpec("span_weight", 1.0, cands[list(sub)])
            )
            best = max(best, val)
    assert bound == pytest.approx(best, abs=1e-7)
    if idx.size:
        chosen = restricted_model_max(
            x_hat, theta_hat, pool, NormalizationSpec("span_weight", 1.0, cands[idx])
        )
        assert chosen == pytest.approx(bound, abs=1e-7)

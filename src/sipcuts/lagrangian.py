"""Scenario value function, multiplier separation, and cut strengthening.

For scenario s with joint feasible set
    K_s = {(x, y) : A x >= b, T_s x + W_s y >= h_s, bounds, integrality}
the weighted value function is

    qbar_s(pi, pi0) = min { pi'x + pi0 * q'y : (x, y) in K_s },  pi0 >= 0.

Every (pi, pi0) yields the valid inequality pi'x + pi0*theta_s >= qbar.
Separation searches a normalized multiplier set for the inequality most
violated by a candidate (x_hat, theta_hat), using an outer model of
qbar built from feasible points collected along the way:

    qbar(pi, pi0) <= pi'x_z + pi0 * theta_z   for (x_z, theta_z) in pool.

The multiplier set is one of
  * "ball":        alpha*pi0 + |pi|_1 <= 1, pi free
  * "span_coef":   pi = V'lam,  alpha*pi0 + |pi|_1 <= 1
  * "span_weight": pi = V'lam,  alpha*pi0 + |lam|_1 <= 1
with pi0 >= 0 throughout; V stacks reference coefficient vectors.

`eval_qbar` answers through the oracle memo of `model`: within one root
loop or branch-and-cut, a question (scenario, pi, pi0) asked again
replays the first solve's incumbents into the pool it is given instead
of solving the MIP, and a MIP it does solve starts its root LP from the
scenario's last qbar root basis.
Within one separation the master is re-solved only after its pool
changed (`ScenarioPool.version`) or, for the trust-region master, its
region moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import optbase
from .benders import Cut
from .model import (
    CONT,
    InstanceError,
    SipInstance,
    eval_recourse,
    joint_scenario_program,
    memo_answer,
    rounded_key,
    solve_from_start,
)
from .optbase import GE, LE, LinearProgram, solve_lp, solve_mip

#: relative violation a multiplier cut must reach to enter the master
LAGR_VIOL_TOL = 1e-6
#: multipliers with smaller theta coefficient are discarded, not scaled
PI0_MIN = 1e-6
#: below this theta coefficient the pool entry is re-priced exactly
PI0_REEVAL = 1e-4
#: oracle calls allowed per separation
ORACLE_BUDGET = 100
#: trust-region radius floor for the ball search
TRUST_FLOOR = 1e-3
#: consecutive identical queries (sup-norm) end the search
QUERY_STALL_TOL = 1e-10
#: branch-and-bound nodes allowed to the basis-selection MIP
SELECT_NODE_LIMIT = 200_000


class ScenarioPool:
    """Feasible points (x_z, theta_z) of one scenario, theta_z being a
    realizable recourse cost at x_z; duplicates keep the smaller theta.
    `version` counts the calls to `add` that changed the pool."""

    def __init__(self):
        self._points: list[tuple[np.ndarray, float]] = []
        self._index: dict[bytes, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self._points)

    def add(self, x: np.ndarray, theta: float) -> bool:
        """True when the pool tightened (new point or smaller theta)."""
        x = np.asarray(x, dtype=np.float64) + 0.0
        key = rounded_key(x, 9)
        pos = self._index.get(key)
        if pos is None:
            self._index[key] = len(self._points)
            self._points.append((x, float(theta)))
        elif theta < self._points[pos][1] - 1e-12:
            self._points[pos] = (self._points[pos][0], float(theta))
        else:
            return False
        self.version += 1
        return True

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        X = np.array([p[0] for p in self._points])
        th = np.array([p[1] for p in self._points])
        return X, th


def eval_qbar(
    inst: SipInstance,
    s: int,
    pi: np.ndarray,
    pi0: float,
    pool: ScenarioPool | None = None,
) -> tuple[float, np.ndarray]:
    """Exact qbar_s(pi, pi0) by MIP; feeds every incumbent into `pool`.

    When pi0 is below PI0_REEVAL the y-part of the optimum carries
    almost no weight, so the optimizer's first-stage point is re-priced
    with an exact recourse solve before entering the pool.

    An answer taken from the oracle memo replays the incumbents of its
    solve, in order, into `pool`, so the pool ends as a fresh solve
    would leave it."""
    if pi0 < 0.0:
        raise InstanceError("qbar is only defined for nonnegative theta weights")
    pi = np.asarray(pi, dtype=np.float64)
    point = pi.tobytes() + np.float64(pi0).tobytes()
    value, x, incumbents = memo_answer(inst, "qbar", s, point, lambda: _qbar(inst, s, pi, pi0))
    if pool is not None:
        for x_z, theta_z in incumbents:
            pool.add(x_z, theta_z)
        if pi0 < PI0_REEVAL:
            x_star = xy_round_first_stage(inst, x)
            pool.add(x_star, eval_recourse(inst, s, x_star))
    return value, x.copy()


def _qbar(inst: SipInstance, s: int, pi: np.ndarray, pi0: float):
    """(qbar value, first-stage optimizer, incumbents as (x_z, theta_z)).

    The tree branches on a fractional first-stage column before any
    recourse column: a fractional x can buy recourse capacity (an SSLP
    server at 0.5 serves half a client), which keeps the LP bound far
    below the optimum until x is integral.

    Inside an open oracle memo the root LP starts from the root basis of
    the scenario's last qbar MIP: only the objective differs, so that
    basis is primal feasible and the kernel goes to primal phase 2 with it."""
    scen = inst.scenarios[s]
    n = inst.nx
    prog = joint_scenario_program(inst, s, pi, pi0 * scen.q)
    first = np.arange(n)
    out = solve_from_start(inst, "qbar", s, lambda warm: solve_mip(prog, first=first, warm=warm))
    if out.status == optbase.UNBOUNDED:
        raise InstanceError(f"scenario {s} weighted value is unbounded for pi0={pi0!r}")
    if out.status != optbase.OPTIMAL:
        raise optbase.KernelError(f"scenario {s} weighted value solve ended {out.status}")
    incumbents = [(xy[:n].copy(), float(scen.q @ xy[n:])) for xy, _ in out.incumbent_pool]
    return float(out.objective), out.x[:n].copy(), incumbents


def xy_round_first_stage(inst: SipInstance, x: np.ndarray) -> np.ndarray:
    """Snap integral first-stage entries exactly onto integers."""
    x = np.asarray(x, dtype=np.float64).copy()
    mask = inst.vtype != CONT
    x[mask] = np.round(x[mask]) + 0.0
    return x


def seed_pool(inst: SipInstance, s: int, pool: ScenarioPool) -> None:
    """Start the pool from the scenario's own-cost optimizer."""
    eval_qbar(inst, s, inst.c, 1.0, pool)


@dataclass
class NormalizationSpec:
    """Multiplier feasible set used by the separation master."""

    kind: str  # "ball" | "span_coef" | "span_weight"
    alpha: float = 1.0
    basis: np.ndarray | None = None  # (k, nx) rows spanning pi, span kinds only

    def __post_init__(self):
        if self.kind not in ("ball", "span_coef", "span_weight"):
            raise ValueError(f"unknown normalization kind {self.kind!r}")
        if not (0.0 < self.alpha < math.inf):
            # alpha = 0 would leave pi0 unbounded and the master can
            # then diverge along the pure-theta direction; an infinite
            # one would put inf into the master's matrix
            raise ValueError("normalization needs a positive, finite theta weight")
        if self.basis is not None:
            self.basis = np.asarray(self.basis, dtype=np.float64)
        if self.kind != "ball" and (self.basis is None or self.basis.size == 0):
            raise ValueError("span normalizations need a nonempty basis")


def _master_program(
    x_hat: np.ndarray,
    theta_hat: float,
    pool_x: np.ndarray,
    pool_th: np.ndarray,
    norm: NormalizationSpec,
    trust: tuple[np.ndarray, float, float] | None = None,
) -> tuple[LinearProgram, slice, int, np.ndarray | None]:
    """LP maximizing the pool-model violation over the multiplier set.

    Columns are [t | mult (k) | abs helpers (nabs) | pi0]; rows are

        t - (P x_z)'mult - theta_z pi0 <= 0      one per pool point
        a_j + (N mult)_j >= 0,  a_j - (N mult)_j >= 0   interleaved, j < nabs
        sum a + alpha pi0 <= 1

    with P = I, N = I_n for the ball, P = basis, N = basis' for
    span_coef and P = basis, N = I_k for span_weight.

    Returns (program, multiplier slice, pi0 column, basis or None); for
    span kinds the slice covers lam and pi = basis' @ lam."""
    n = x_hat.size
    z = pool_x.shape[0]
    if norm.kind == "ball":
        proj = None  # pi appears directly
        pool_cols, hat_cols, N = pool_x, x_hat, np.eye(n)
    else:
        proj = norm.basis
        pool_cols, hat_cols = pool_x @ proj.T, proj @ x_hat  # row z: V x_z
        N = proj.T if norm.kind == "span_coef" else np.eye(proj.shape[0])
    nabs, k = N.shape
    msl, p0 = slice(1, 1 + k), 1 + k + nabs
    A = np.zeros((z + 2 * nabs + 1, p0 + 1))
    A[:z, 0] = 1.0
    A[:z, msl] = -pool_cols
    A[:z, p0] = -pool_th
    A[z : z + 2 * nabs : 2, msl] = N
    A[z + 1 : z + 2 * nabs : 2, msl] = -N
    pair = np.arange(2 * nabs)
    A[z + pair, 1 + k + pair // 2] = 1.0
    A[-1, 1 + k : p0] = 1.0
    A[-1, p0] = norm.alpha
    c = np.concatenate([[1.0], -hat_cols, np.zeros(nabs), [-theta_hat]])
    lb = np.concatenate([np.full(1 + k, -np.inf), np.zeros(nabs + 1)])
    ub = np.full(p0 + 1, np.inf)
    if trust is not None:
        center_m, center_p0, radius = trust
        lb[msl] = center_m - radius
        ub[msl] = center_m + radius
        lb[p0] = max(0.0, center_p0 - radius)
        ub[p0] = center_p0 + radius
    senses = np.full(A.shape[0], GE, dtype=np.int8)
    senses[:z] = senses[-1] = LE
    rhs = np.zeros(A.shape[0])
    rhs[-1] = 1.0
    prog = LinearProgram(c, A, senses, rhs, lb, ub, maximize=True)
    return prog, msl, p0, proj


def _solve_master(x_hat, theta_hat, pool, norm, trust=None, last=None):
    """(model violation, pi, pi0, raw multiplier) at the master optimum.

    `last` keeps one separation's latest answer with and without `trust`;
    x_hat, theta_hat and norm are fixed within a separation, so an
    answer is reused while the pool version and the trust region match."""
    slot = "global" if trust is None else "trust"
    key = (pool.version,) if trust is None else (pool.version, trust[0].tobytes(), *trust[1:])
    if last is not None and slot in last and last[slot][0] == key:
        return last[slot][1]
    pool_x, pool_th = pool.arrays()
    prog, msl, p0, proj = _master_program(x_hat, theta_hat, pool_x, pool_th, norm, trust)
    out = solve_lp(prog)
    if out.status != optbase.OPTIMAL:
        raise optbase.KernelError(f"separation master ended {out.status}")
    mult = out.x[msl]
    pi = mult.copy() if proj is None else proj.T @ mult
    # basic variables may sit a feasibility tolerance outside their bound;
    # the multiplier weight is constrained nonnegative, so snap it back
    pi0 = max(0.0, float(out.x[p0]))
    ans = float(out.objective), pi, pi0, mult
    if last is not None:
        last[slot] = (key, ans)
    return ans


@dataclass
class SeparationResult:
    cut: Cut | None
    pi: np.ndarray | None
    pi0: float
    lower: float  # best exact violation found
    upper: float  # final model bound on achievable violation
    oracle_calls: int
    stop: str  # "delta" | "no_violation" | "stalled" | "budget" | "pi0_small"


def separate_restricted(
    inst: SipInstance,
    s: int,
    x_hat: np.ndarray,
    theta_hat: float,
    norm: NormalizationSpec,
    pool: ScenarioPool | None = None,
    delta: float = 0.0,
) -> SeparationResult:
    """Search the normalized multiplier set for a violated inequality.

    Alternates: (1) model solve over the whole set for a certified bound
    on the achievable violation, (2) an oracle call at a query point —
    trust-region-restricted for the ball set, plain model argmax
    otherwise — which also tightens the model. Stops when the bound and
    the best exact violation are delta-close, when the bound proves no
    usable cut exists, when queries stall, or on oracle budget."""
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if pool is None:
        pool = ScenarioPool()
    scen_tol = LAGR_VIOL_TOL * (abs(theta_hat) + 1.0)
    if len(pool) == 0:
        seed_pool(inst, s, pool)

    best_pi, best_pi0, best_val = None, 0.0, 0.0
    lower = -math.inf
    center = None
    radius = 1.0
    prev_query = None
    calls = 0
    upper = math.inf
    stop = "budget"
    last: dict = {}
    while calls < ORACLE_BUDGET:
        upper, g_pi, g_pi0, g_mult = _solve_master(x_hat, theta_hat, pool, norm, last=last)
        if upper <= scen_tol:
            stop = "no_violation"
            break
        if lower > -math.inf and upper - lower <= delta * upper + 1e-9 * (1.0 + abs(upper)):
            stop = "delta"
            break
        candidates = []
        if norm.kind == "ball" and center is not None:
            _, t_pi, t_pi0, t_mult = _solve_master(
                x_hat, theta_hat, pool, norm, trust=(center[0], center[1], radius), last=last
            )
            candidates.append((t_pi, t_pi0, t_mult))
        candidates.append((g_pi, g_pi0, g_mult))
        query = None
        for q_pi, q_pi0, q_mult in candidates:
            if prev_query is None or (
                max(np.max(np.abs(q_pi - prev_query[0]), initial=0.0), abs(q_pi0 - prev_query[1]))
                >= QUERY_STALL_TOL
            ):
                query = (q_pi, q_pi0, q_mult)
                break
        if query is None:
            stop = "stalled"
            break
        q_pi, q_pi0, q_mult = query
        value, _ = eval_qbar(inst, s, q_pi, q_pi0, pool)
        calls += 1
        viol = value - float(q_pi @ x_hat) - q_pi0 * theta_hat
        if viol > lower:
            lower = viol
            best_pi, best_pi0, best_val = q_pi.copy(), q_pi0, value
            center = (q_mult.copy(), q_pi0)
        else:
            radius = max(radius / 2.0, TRUST_FLOOR)
        prev_query = (q_pi, q_pi0)

    if lower == -math.inf:
        lower = 0.0
    if best_pi is None or lower <= scen_tol:
        return SeparationResult(None, best_pi, best_pi0, lower, upper, calls, stop)
    if best_pi0 < PI0_MIN:
        return SeparationResult(None, best_pi, best_pi0, lower, upper, calls, "pi0_small")
    cut = Cut(
        family="lagrangian",
        scenario=s,
        coef_x=best_pi,
        coef_theta=best_pi0,
        rhs=best_val,
    )
    return SeparationResult(cut, best_pi, best_pi0, lower, upper, calls, stop)


def strengthen_benders(
    inst: SipInstance,
    s: int,
    parent: Cut,
    pool: ScenarioPool | None = None,
) -> Cut:
    """Re-derive the right-hand side of a classical cut exactly.

    The parent (mu'T)x + theta_s >= rhs came from the scenario LP; with
    pi = mu'T and pi0 = 1 the exact weighted value qbar(pi, 1) >= rhs,
    so lifting the right-hand side to it keeps validity and can only
    tighten."""
    value, _ = eval_qbar(inst, s, parent.coef_x, 1.0, pool)
    if value < parent.rhs - 1e-7 * (1.0 + abs(parent.rhs)):
        raise optbase.KernelError(
            f"strengthened rhs {value!r} fell below the classical rhs {parent.rhs!r}"
        )
    return Cut(
        family="strengthened",
        scenario=s,
        coef_x=parent.coef_x.copy(),
        coef_theta=1.0,
        rhs=value,
    )


def benders_basis(cuts: list[Cut], s: int, k_max: int, nx: int) -> np.ndarray:
    """Last `k_max` distinct classical-cut coefficient vectors of one
    scenario, oldest first; shape (k, nx) (possibly k = 0)."""
    seen: set[bytes] = set()
    vecs: list[np.ndarray] = []
    for cut in cuts:
        if cut.scenario != s or cut.family not in ("benders", "strengthened"):
            continue
        key = rounded_key(cut.coef_x, 12)
        if key in seen:
            continue
        seen.add(key)
        vecs.append(cut.coef_x)
    if not vecs:
        return np.zeros((0, nx))
    return np.array(vecs[-k_max:])


def select_basis_mip(
    x_hat: np.ndarray,
    theta_hat: float,
    pool: ScenarioPool,
    candidates: np.ndarray,
    k_max: int,
    alpha: float,
) -> tuple[np.ndarray, float]:
    """Pick at most k_max rows of `candidates` maximizing the pool-model
    violation under the weight normalization; returns (indices, bound).

    The bound is exact for the weight-normalized restricted search over
    the same pool, so a small bound certifies the scenario can be
    skipped."""
    if not (0.0 < alpha < math.inf):
        raise ValueError("basis selection needs a positive, finite theta weight in the norm")
    x_hat = np.asarray(x_hat, dtype=np.float64)
    V = np.asarray(candidates, dtype=np.float64)
    K = V.shape[0]
    pool_x, pool_th = pool.arrays()
    z = pool_x.shape[0]
    pool_cols = pool_x @ V.T
    hat_cols = V @ x_hat
    # columns [t | lam+ (K) | lam- (K) | z (K) | pi0]; rows: the pool model,
    # lam+_k + lam-_k <= z_k, sum z <= k_max, then the weight normalization
    eye, ones = np.eye(K), np.ones((1, K))
    A = np.block(
        [
            [np.ones((z, 1)), -pool_cols, pool_cols, np.zeros((z, K)), -pool_th[:, None]],
            [np.zeros((K, 1)), eye, eye, -eye, np.zeros((K, 1))],
            [np.zeros((1, 1 + 2 * K)), ones, np.zeros((1, 1))],
            [np.zeros((1, 1)), ones, ones, np.zeros((1, K)), np.full((1, 1), alpha)],
        ]
    )
    lp0, lm0, z0, p0 = 1, 1 + K, 1 + 2 * K, 1 + 3 * K
    c = np.concatenate([[1.0], -hat_cols, hat_cols, np.zeros(K), [-theta_hat]])
    lb = np.zeros(p0 + 1)
    lb[0] = -np.inf
    ub = np.ones(p0 + 1)
    ub[0] = ub[p0] = np.inf
    is_int = np.zeros(p0 + 1, dtype=bool)
    is_int[z0:p0] = True
    rhs = np.zeros(A.shape[0])
    rhs[-2:] = [k_max, 1.0]
    prog = optbase.MipProgram(
        c=c,
        A=A,
        senses=np.full(A.shape[0], LE, dtype=np.int8),
        rhs=rhs,
        lb=lb,
        ub=ub,
        is_int=is_int,
        maximize=True,
    )
    out = solve_mip(prog, node_limit=SELECT_NODE_LIMIT)
    if out.status != optbase.OPTIMAL:
        raise optbase.KernelError(f"basis selection ended {out.status}")
    lam = out.x[lp0 : lp0 + K] - out.x[lm0 : lm0 + K]
    idx = np.nonzero(np.abs(lam) > 1e-12)[0]
    if idx.size > k_max:  # numerical safety; the cardinality row bounds it
        order = np.argsort(-np.abs(lam[idx]))
        idx = np.sort(idx[order[:k_max]])
    return idx, float(out.objective)
